package spq

import (
	"fmt"
	"testing"
)

// The one-view tests pin that a generation has one query grid: every
// query without WithGrid runs on the default grid over bounds that depend
// on the data alone, so the engine builds one data view per generation,
// and so does each worker of a distributed engine.

// oneViewQueries are queries of very different selectivity over
// the clustered corpus: a rare keyword at a small radius, two common
// keywords, and every common keyword at a radius that reaches nearly all
// of it.
func oneViewQueries() []Query {
	every := make([]string, 10)
	for i := range every {
		every[i] = fmt.Sprintf("common%d", i)
	}
	return []Query{
		{K: 5, Radius: 0.005, Keywords: []string{"c0-kw7"}},
		{K: 5, Radius: 0.05, Keywords: []string{"common1", "common2"}},
		{K: 10, Radius: 0.3, Keywords: every},
	}
}

// viewMissStages runs oneViewQueries with every algorithm on e over three
// stages of one corpus: sealed, after an append inside the bounds (the
// same base generation, a delta), and after the compaction that seals a
// new generation. Every result must equal the R-tree oracle's. For each
// stage it returns the reports, and it checks that the queries' plans
// selected record counts at least 4x apart.
func viewMissStages(t *testing.T, e *Engine) [3][]*Report {
	t.Helper()
	dataObjs, feats := clusteredCorpus(6000, 4)
	if err := e.AddData(dataObjs...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats...); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	var stages [3][]*Report
	run := func(stage int) {
		var minSel, maxSel int64 = -1, 0
		for qi, q := range oneViewQueries() {
			want := oracleResults(dataObjs, feats, q)
			for _, alg := range Algorithms() {
				rep, err := e.QueryReport(q, WithAlgorithm(alg), WithCache(false))
				if err != nil {
					t.Fatal(err)
				}
				if d := diffResults(rep.Results, want); d != "" {
					t.Errorf("stage %d q%d %v: %s", stage, qi, alg, d)
				}
				if rep.Plan.GridN != defaultGridN {
					t.Errorf("stage %d q%d %v: grid %d, want %d", stage, qi, alg, rep.Plan.GridN, defaultGridN)
				}
				if sel := rep.Plan.RecordsSelected; minSel < 0 || sel < minSel {
					minSel = sel
				}
				maxSel = max(maxSel, rep.Plan.RecordsSelected)
				stages[stage] = append(stages[stage], rep)
			}
		}
		if minSel*4 > maxSel {
			t.Fatalf("stage %d: the plans selected %d to %d records; the queries are not of very different selectivity", stage, minSel, maxSel)
		}
	}
	run(0)
	// Appended on existing objects, so the bounds do not move.
	d, f := dataObjs[0], feats[0]
	d.ID, f.ID = 1<<40, 1<<40+1
	f.Keywords = []string{"common1", "c0-kw7"}
	dataObjs, feats = append(dataObjs, d), append(feats, f)
	if err := e.AddData(d); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(f); err != nil {
		t.Fatal(err)
	}
	run(1)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	run(2)
	return stages
}

// TestOneViewPerGeneration: queries of very different selectivity build
// one data view per generation in-process: one spq.view.miss for the
// sealed generation, none after an append (the delta overlays that view),
// and one for the compacted generation.
func TestOneViewPerGeneration(t *testing.T) {
	e := NewEngine(Config{Nodes: 4, CompactAfter: -1})
	t.Cleanup(func() { e.Close() })
	for stage, reps := range viewMissStages(t, e) {
		var misses int64
		for _, rep := range reps {
			misses += rep.Counters[CounterViewMiss]
		}
		if want := []int64{1, 0, 1}[stage]; misses != want {
			t.Errorf("stage %d: %d view builds, want %d", stage, misses, want)
		}
	}
}

// TestDistributedOneViewPerGeneration: the same queries on 2 loopback
// workers. Each worker builds one view per generation (its
// spq.view.miss.<worker> sums to 1 for the sealed and for the compacted
// generation, and to 0 after the append). After the append, the queries
// that select a delta block run in-process on the engine's view, which
// the first of them builds.
func TestDistributedOneViewPerGeneration(t *testing.T) {
	e := NewEngine(Config{Nodes: 4, MapSlots: 2, ReduceSlots: 2, CompactAfter: -1, Workers: distWorkers(t, 2, 1)})
	t.Cleanup(func() { e.Close() })
	stages := viewMissStages(t, e)
	workers := e.Workers()
	if len(workers) != 2 {
		t.Fatalf("workers %v, want 2", workers)
	}
	for stage, reps := range stages {
		perWorker := make(map[string]int64)
		var total, local int64
		for _, rep := range reps {
			total += rep.Counters[CounterViewMiss]
			for _, w := range workers {
				perWorker[w] += rep.Counters[CounterViewMiss+"."+w]
			}
			if rep.Counters[CounterExecFallbackLocal] != 0 {
				local += rep.Counters[CounterViewMiss]
			}
		}
		want, wantLocal := []int64{1, 0, 1}[stage], []int64{0, 1, 0}[stage]
		for _, w := range workers {
			if perWorker[w] != want {
				t.Errorf("stage %d: %s built %d views, want %d", stage, w, perWorker[w], want)
			}
		}
		if local != wantLocal || total != perWorker[workers[0]]+perWorker[workers[1]]+local {
			t.Errorf("stage %d: %d view builds, %d of them on the master (want %d), per worker %v", stage, total, local, wantLocal, perWorker)
		}
	}
}

// TestCollinearGridIgnoresRadius: over 200 collinear objects, whose
// bounding box has no height, queries at 4 radii build one data view
// between them, since the degenerate box is padded by 1
// whatever the radius, and every result equals the R-tree oracle's.
func TestCollinearGridIgnoresRadius(t *testing.T) {
	var dataObjs []DataObject
	var feats []Feature
	for i := 0; i < 200; i++ {
		x := float64(i) / 199
		if i%2 == 0 {
			dataObjs = append(dataObjs, DataObject{ID: uint64(i + 1), X: x, Y: 0.5})
		} else {
			feats = append(feats, Feature{ID: uint64(i + 1), X: x, Y: 0.5, Keywords: []string{fmt.Sprintf("w%d", i%7), fmt.Sprintf("w%d", i%5)}})
		}
	}
	e := NewEngine(Config{Nodes: 4})
	t.Cleanup(func() { e.Close() })
	if err := e.AddData(dataObjs...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats...); err != nil {
		t.Fatal(err)
	}
	var misses int64
	for _, r := range []float64{0.01, 0.05, 0.2, 1} {
		q := Query{K: 5, Radius: r, Keywords: []string{"w1", "w3"}}
		want := oracleResults(dataObjs, feats, q)
		if len(want) == 0 {
			t.Fatalf("r=%g: the oracle returns nothing; the corpus is off", r)
		}
		for _, alg := range Algorithms() {
			rep, err := e.QueryReport(q, WithAlgorithm(alg), WithCache(false))
			if err != nil {
				t.Fatal(err)
			}
			if d := diffResults(rep.Results, want); d != "" {
				t.Errorf("r=%g %v: %s", r, alg, d)
			}
			misses += rep.Counters[CounterViewMiss]
		}
	}
	if misses != 1 {
		t.Errorf("queries at 4 radii built %d data views, want 1", misses)
	}
}
