package spq

import (
	"fmt"
	"math/rand"
	"testing"

	"spq/internal/data"
)

// resultsEqual compares two result lists element-wise. Scores must be
// bitwise identical: pruning only removes provably-zero-scoring input, so
// the surviving computation is exactly the same.
func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPlannedQueriesMatchUnplannedProperty is the planner's correctness
// property: for random datasets (uniform and clustered), random queries
// (including out-of-vocabulary keywords), every algorithm and every
// scoring mode it supports, the planned query returns exactly the results
// of the unplanned centralized R-tree oracle, on a fixed query grid and on
// the default one, k-ties at the threshold included: the top-k is
// canonical (lowest id wins a tie), whatever the grid or the cells
// sharing a task.
func TestPlannedQueriesMatchUnplannedProperty(t *testing.T) {
	for _, family := range []string{"uniform", "clustered"} {
		t.Run(family+"/binary", func(t *testing.T) {
			e := NewEngine(Config{Nodes: 4, BlockSize: 4 << 10, Seed: 9, SealGridN: 8})
			if err := e.LoadSynthetic(family, 600); err != nil {
				t.Fatal(err)
			}
			dataObjs, feats := engineObjects(e)
			kws := e.FrequentKeywords(6)
			rng := rand.New(rand.NewSource(17))
			queries := []Query{
				{K: 1, Radius: 0.02, Keywords: kws[:1]},
				{K: 3, Radius: 0.05, Keywords: kws[1:3]},
				{K: 10, Radius: 0.15, Keywords: kws[3:6]},
				{K: 5, Radius: 0.08, Keywords: []string{kws[0], "zzz-out-of-vocabulary"}},
				{K: 4, Radius: 0, Keywords: kws[:2]},
				{K: 2, Radius: 0.03, Keywords: []string{"zzz-no-such-keyword"}},
				{K: 6, Radius: float64(rng.Intn(20)+1) / 100, Keywords: kws[rng.Intn(3) : rng.Intn(3)+2]},
			}
			for qi, q := range queries {
				for _, mode := range []ScoringMode{ScoreRange, ScoreInfluence, ScoreNearest} {
					q.Mode = mode
					want := oracleResults(dataObjs, feats, q)
					for _, alg := range Algorithms() {
						if !alg.SupportsMode(mode) {
							continue
						}
						for _, opts := range [][]QueryOption{{WithGrid(9)}, nil} {
							got, err := e.Query(q, append(opts, WithAlgorithm(alg))...)
							if err != nil {
								t.Fatalf("q%d %v %v grid9=%v: %v", qi, alg, mode, opts != nil, err)
							}
							if !resultsEqual(got, want) {
								t.Errorf("q%d %v %v grid9=%v: planned results differ\noracle:  %+v\nplanned: %+v",
									qi, alg, mode, opts != nil, want, got)
							}
						}
					}
				}
			}
		})
	}
}

// engineObjects returns every object the engine holds, sealed and
// appended, in the public form the oracle reads.
func engineObjects(e *Engine) (dataObjs []DataObject, feats []Feature) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.allObjectsLocked() {
		if o.Kind == data.DataObject {
			dataObjs = append(dataObjs, DataObject{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y})
		} else {
			feats = append(feats, Feature{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Keywords: e.dict.Words(o.Keywords)})
		}
	}
	return dataObjs, feats
}

// loadClusteredCorpus fills an engine with clusteredCorpus(n, nClusters).
func loadClusteredCorpus(t *testing.T, e *Engine, n, nClusters int) {
	t.Helper()
	dataObjs, feats := clusteredCorpus(n, nClusters)
	if err := e.AddData(dataObjs...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats...); err != nil {
		t.Fatal(err)
	}
}

// clusteredCorpus is a spatially and textually clustered corpus of n
// objects: nClusters Gaussian clusters, each with its own keyword
// vocabulary ("c<i>-kw<j>") plus a shared one — the regime where a
// rare-keyword query touches one corner of the space and write-time
// partitioning pays off.
func clusteredCorpus(n, nClusters int) ([]DataObject, []Feature) {
	rng := rand.New(rand.NewSource(23))
	centers := make([][2]float64, nClusters)
	for i := range centers {
		centers[i] = [2]float64{0.1 + 0.8*rng.Float64(), 0.1 + 0.8*rng.Float64()}
	}
	var dataObjs []DataObject
	var feats []Feature
	for i := 0; i < n; i++ {
		ci := (i / 2) % nClusters // both kinds populate every cluster
		x := centers[ci][0] + rng.NormFloat64()*0.03
		y := centers[ci][1] + rng.NormFloat64()*0.03
		if i%2 == 0 {
			dataObjs = append(dataObjs, DataObject{ID: uint64(i + 1), X: x, Y: y})
		} else {
			feats = append(feats, Feature{ID: uint64(i + 1), X: x, Y: y, Keywords: []string{
				fmt.Sprintf("c%d-kw%d", ci, rng.Intn(64)),
				fmt.Sprintf("c%d-kw%d", ci, rng.Intn(64)),
				fmt.Sprintf("common%d", rng.Intn(10)),
			}})
		}
	}
	return dataObjs, feats
}

// TestPlannerReadsFractionOnSelectiveQuery is the serving-throughput
// acceptance bar: on a clustered 100k-object corpus, a selective query (a
// rare keyword occurring in one cluster, small radius) must read at least
// 4x fewer input records than the corpus holds, returning the oracle's
// results. The data objects reach reduce through the data view, so the
// job itself reads feature records only: a strict subset of the plan's
// selection, and at most a quarter of the 50k features.
func TestPlannerReadsFractionOnSelectiveQuery(t *testing.T) {
	e := NewEngine(Config{})
	loadClusteredCorpus(t, e, 100000, 16)
	dataObjs, feats := clusteredCorpus(100000, 16)

	q := Query{K: 10, Radius: 0.02, Keywords: []string{"c3-kw7"}}
	planned, err := e.QueryReport(q, WithAlgorithm(ESPQSco))
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleResults(dataObjs, feats, q); !resultsEqual(want, planned.Results) {
		t.Fatalf("planned results differ:\noracle:  %+v\nplanned: %+v", want, planned.Results)
	}
	if len(planned.Results) == 0 {
		t.Fatal("selective query returned nothing; corpus construction is off")
	}

	read := planned.Counters["map.records.in"]
	if read*4 > int64(len(feats)) {
		t.Errorf("planned path read %d of %d feature records; want >=4x reduction", read, len(feats))
	}
	selected, total := planned.Plan.RecordsSelected, planned.Plan.RecordsTotal
	if total != 100000 || selected*4 > total {
		t.Errorf("plan selected %d of %d records; want >=4x reduction of 100000", selected, total)
	}
	if read == 0 || read >= selected {
		t.Errorf("job read %d records, want a non-empty strict subset of the %d selected (features only)", read, selected)
	}
	if skipped := planned.Counters["spq.plan.records.skipped"]; skipped != total-selected {
		t.Errorf("records-skipped counter = %d, want %d", skipped, total-selected)
	}
	if planned.Plan.DataCellsPruned == 0 || planned.Plan.FeatureCellsPruned == 0 {
		t.Errorf("no cell pruning recorded: %+v", planned.Plan)
	}
	t.Logf("selective query: %d -> %d feature records read (%.1fx), grid %d, %d reducers",
		len(feats), read, float64(len(feats))/float64(read), planned.Plan.GridN, planned.Plan.NumReducers)
}

// TestAutoPlanProvablyEmptyQuerySkipsJob checks the planner's
// short-circuit, which every query takes: a query whose keyword occurs
// nowhere needs no MapReduce job at all, and still reports its pruning.
func TestAutoPlanProvablyEmptyQuerySkipsJob(t *testing.T) {
	e := loadPaperExample(t, Config{})
	rep, err := e.QueryReport(Query{K: 3, Radius: 1.5, Keywords: []string{"nope-xyzzy"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("results = %+v, want none", rep.Results)
	}
	if rep.Plan == nil || rep.Plan.RecordsSelected >= rep.Plan.RecordsTotal {
		t.Errorf("plan stats = %+v, want pruning recorded", rep.Plan)
	}
	if rep.Counters["map.records.in"] != 0 {
		t.Errorf("a job ran: map.records.in = %d", rep.Counters["map.records.in"])
	}
	// The short-circuit must validate like the executed path.
	if _, err := e.QueryReport(Query{K: 1, Radius: 1, Keywords: []string{"nope-xyzzy"}, Mode: ScoreNearest},
		WithAlgorithm(ESPQSco)); err == nil {
		t.Error("unsupported algorithm/mode combination accepted on the empty-plan path")
	}
}

// TestConfigSealGridControlsManifest checks that Config.SealGridN is the one
// place the seal grid is set: the default, an override, and a compaction
// re-sealing over the same edge.
func TestConfigSealGridControlsManifest(t *testing.T) {
	q := Query{K: 1, Radius: 1.5, Keywords: []string{"italian"}}
	def := loadPaperExample(t, Config{})
	if def.Manifest() != nil {
		t.Fatal("manifest exists before seal")
	}
	if _, err := def.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := def.Manifest().Grid.N; got != DefaultSealGridN {
		t.Errorf("default seal grid = %d, want %d", got, DefaultSealGridN)
	}

	e := loadPaperExample(t, Config{SealGridN: 5})
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	man := e.Manifest()
	if man == nil {
		t.Fatal("no manifest after seal")
	}
	if man.Grid.N != 5 {
		t.Errorf("seal grid = %d, want 5 (Config.SealGridN)", man.Grid.N)
	}
	if man.TotalRecords() != 13 {
		t.Errorf("manifest records = %d, want 13", man.TotalRecords())
	}
	if err := e.AddFeature(Feature{ID: 109, X: 6.1, Y: 6.2, Keywords: []string{"italian"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if man = e.Manifest(); man.Grid.N != 5 || man.TotalRecords() != 14 {
		t.Errorf("after compaction: seal grid = %d, records = %d, want 5 and 14", man.Grid.N, man.TotalRecords())
	}
}
