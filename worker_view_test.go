package spq

import (
	"fmt"
	"testing"

	"spq/internal/mapreduce"
)

// The worker-view tests run distributed engines on loopback workers whose
// reduce tasks serve the sealed data objects from data views the workers
// build and keep themselves, so a shipped job shuffles features only.

// viewQueries are the clustered corpus's queries the worker-view tests
// run: one common and one cluster-local keyword each.
func viewQueries() []Query {
	var qs []Query
	for i := 0; i < 4; i++ {
		qs = append(qs, Query{K: 6, Radius: 0.03, Keywords: []string{fmt.Sprintf("common%d", i), fmt.Sprintf("c%d-kw%d", i, 3*i)}})
	}
	return qs
}

// viewEngine seals the clustered corpus of n objects into an engine with
// the given workers, leaving the last third of each dataset to be appended
// by the caller when split is set.
func viewEngine(t *testing.T, workers []string, n int, split bool) (e *Engine, restData []DataObject, restFeats []Feature) {
	t.Helper()
	dataObjs, feats := clusteredCorpus(n, 4)
	nd, nf := len(dataObjs), len(feats)
	if split {
		nd, nf = nd*2/3, nf*2/3
	}
	e = NewEngine(Config{Nodes: 4, BlockSize: 8 << 10, MapSlots: 4, ReduceSlots: 2, CompactAfter: -1, Workers: workers})
	t.Cleanup(func() { e.Close() })
	if err := e.AddData(dataObjs[:nd]...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats[:nf]...); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	return e, dataObjs[nd:], feats[nf:]
}

// TestDistributedWorkerViews: a shipped job reads feature records only —
// its map.records.in equals the in-process engine's, at most the feature
// count — and matches the in-process engine for every algorithm. The workers build a view once per generation and grid
// and keep it, with the decoded blocks, across jobs: a repeated query
// builds no view and reads no segment byte.
func TestDistributedWorkerViews(t *testing.T) {
	const n = 3000
	ref, _, _ := viewEngine(t, nil, n, false)
	eng, _, _ := viewEngine(t, distWorkers(t, 2, 2), n, false)
	_, nFeats := eng.Len()
	for qi, q := range viewQueries() {
		for _, alg := range Algorithms() {
			opts := []QueryOption{WithAlgorithm(alg), WithCache(false)}
			want, err := ref.QueryReport(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("q%d %v", qi, alg)
			var reps []*Report
			for range 2 {
				rep, err := eng.QueryReport(q, opts...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if d := diffResults(rep.Results, want.Results); d != "" {
					t.Errorf("%s on workers: %s", label, d)
				}
				if rep.Counters[CounterExecFallbackLocal] != 0 || rep.Counters[CounterViewHit] != 0 {
					t.Fatalf("%s: the job did not ship with its block list: %v", label, rep.Counters)
				}
				reps = append(reps, rep)
			}
			in := reps[0].Counters[mapreduce.CounterMapRecordsIn]
			if want := want.Counters[mapreduce.CounterMapRecordsIn]; in != want || in > int64(nFeats) {
				t.Errorf("%s: map.records.in = %d, want the %d selected feature records (%d features)", label, in, want, nFeats)
			}
			if again := reps[1].Counters; again[CounterViewMiss] != 0 || again[CounterSegBytesRead] != 0 || again[CounterSegBytesDecoded] != 0 {
				t.Errorf("%s, repeated: spq.view.miss=%d seg.bytes.read=%d decoded=%d, want the workers' views and blocks reused",
					label, again[CounterViewMiss], again[CounterSegBytesRead], again[CounterSegBytesDecoded])
			}
		}
	}
	// Only the first query at each grid built views: at most one per
	// worker and grid.
	first, err := eng.QueryReport(viewQueries()[0], WithCache(false), WithGrid(5))
	if err != nil {
		t.Fatal(err)
	}
	if m := first.Counters[CounterViewMiss]; m < 1 || m > 2 {
		t.Errorf("a query at a new grid built %d worker views, want one per worker that ran a reduce group", m)
	}
}

// TestDistributedDeltaRunsLocallyWithView: a distributed engine with a
// visible delta runs the job in-process, on the engine's own data view
// with the delta overlaid, and matches the R-tree oracle.
func TestDistributedDeltaRunsLocallyWithView(t *testing.T) {
	dataObjs, feats := clusteredCorpus(2400, 4)
	eng, restData, restFeats := viewEngine(t, distWorkers(t, 2, 2), 2400, true)
	if err := eng.AddData(restData...); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFeature(restFeats...); err != nil {
		t.Fatal(err)
	}
	for qi, q := range viewQueries() {
		want := oracleResults(dataObjs, feats, q)
		for _, alg := range Algorithms() {
			opts := []QueryOption{WithAlgorithm(alg), WithCache(false)}
			rep, err := eng.QueryReport(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("q%d %v", qi, alg)
			if !resultsEqual(rep.Results, want) {
				t.Errorf("%s with a delta: %v, oracle %v", label, rep.Results, want)
			}
			c := rep.Counters
			if c[CounterExecFallbackLocal] != 1 || c[CounterViewHit]+c[CounterViewMiss] != 1 || c[CounterDeltaRecordsSelected] == 0 {
				t.Errorf("%s: fallback=%d view hit+miss=%d delta selected=%d, want an in-process job on the engine's view with the delta",
					label, c[CounterExecFallbackLocal], c[CounterViewHit]+c[CounterViewMiss], c[CounterDeltaRecordsSelected])
			}
		}
	}
}

// TestDistributedCompactRekeysViews: after a compaction the next shipped
// job's workers build views of the new generation — the appended records
// included — so queries on 2 loopback workers match an in-process engine
// holding everything. The queries fix the grid and its bounds, so only the
// generation tells the two views apart.
func TestDistributedCompactRekeysViews(t *testing.T) {
	fixed := []QueryOption{WithCache(false), WithGrid(8), WithBounds(-0.5, -0.5, 1.5, 1.5)}
	ref, _, _ := viewEngine(t, nil, 2400, false)
	eng, restData, restFeats := viewEngine(t, distWorkers(t, 2, 2), 2400, true)
	check := func(stage string, wantMiss bool) {
		t.Helper()
		for qi, q := range viewQueries() {
			for _, alg := range Algorithms() {
				rep, err := eng.QueryReport(q, append([]QueryOption{WithAlgorithm(alg)}, fixed...)...)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s q%d %v", stage, qi, alg)
				if rep.Counters[CounterExecFallbackLocal] != 0 {
					t.Fatalf("%s: the job did not ship", label)
				}
				if qi == 0 && alg == Algorithms()[0] && (rep.Counters[CounterViewMiss] > 0) != wantMiss {
					t.Errorf("%s: spq.view.miss = %d, want a build: %v", label, rep.Counters[CounterViewMiss], wantMiss)
				}
				if stage == "compacted" {
					want, err := ref.Query(q, append([]QueryOption{WithAlgorithm(alg)}, fixed...)...)
					if err != nil {
						t.Fatal(err)
					}
					if d := diffResults(rep.Results, want); d != "" {
						t.Errorf("%s: %s", label, d)
					}
				}
			}
		}
	}
	check("sealed", true)
	check("sealed again", false)
	if err := eng.AddData(restData...); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFeature(restFeats...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted", true)
}
