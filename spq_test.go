package spq

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"spq/internal/data"
)

// loadPaperExample fills an engine with the dataset of Example 1 / Table 2.
func loadPaperExample(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	err := e.AddData(
		DataObject{ID: 1, X: 4.6, Y: 4.8},
		DataObject{ID: 2, X: 7.5, Y: 1.7},
		DataObject{ID: 3, X: 8.9, Y: 5.2},
		DataObject{ID: 4, X: 1.8, Y: 1.8},
		DataObject{ID: 5, X: 1.9, Y: 9.0},
	)
	if err != nil {
		t.Fatal(err)
	}
	err = e.AddFeature(
		Feature{ID: 101, X: 2.8, Y: 1.2, Keywords: []string{"italian", "gourmet"}},
		Feature{ID: 102, X: 5.0, Y: 3.8, Keywords: []string{"chinese", "cheap"}},
		Feature{ID: 103, X: 8.7, Y: 1.9, Keywords: []string{"sushi", "wine"}},
		Feature{ID: 104, X: 3.8, Y: 5.5, Keywords: []string{"italian"}},
		Feature{ID: 105, X: 5.2, Y: 5.1, Keywords: []string{"mexican", "exotic"}},
		Feature{ID: 106, X: 7.4, Y: 5.4, Keywords: []string{"greek", "traditional"}},
		Feature{ID: 107, X: 3.0, Y: 8.1, Keywords: []string{"italian", "spaghetti"}},
		Feature{ID: 108, X: 9.5, Y: 7.0, Keywords: []string{"indian"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQuickstartPaperExample(t *testing.T) {
	for _, alg := range Algorithms() {
		e := loadPaperExample(t, Config{Nodes: 4, BlockSize: 64})
		res, err := e.Query(
			Query{K: 1, Radius: 1.5, Keywords: []string{"italian"}},
			WithAlgorithm(alg), WithGrid(4), WithBounds(0, 0, 10, 10),
		)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res) != 1 || res[0].ID != 1 || res[0].Score != 1 {
			t.Errorf("%v: top-1 = %+v, want p1 score 1", alg, res)
		}
	}
}

// The zero Config is the engine the benchmark measures: SPQ3 segments in
// the DFS.
func TestDefaultConfigSealsSPQ3(t *testing.T) {
	e := loadPaperExample(t, Config{})
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	m := e.Manifest()
	for _, cs := range append(append([]data.CellStats(nil), m.Data...), m.Features...) {
		if n, err := e.fs.Len(cs.File); err != nil || n == 0 || cs.Blocks[0].Length == 0 {
			t.Errorf("Config{} sealed cell %s as %d DFS bytes (%v), first frame %d bytes; want an SPQ3 segment", cs.File, n, err, cs.Blocks[0].Length)
		}
	}
}

func TestQueryTop3(t *testing.T) {
	e := loadPaperExample(t, Config{})
	res, err := e.Query(Query{K: 3, Radius: 1.5, Keywords: []string{"italian"}}, WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results: %+v", len(res), res)
	}
	wantIDs := []uint64{1, 4, 5}
	wantScores := []float64{1, 0.5, 0.5}
	for i := range res {
		if res[i].ID != wantIDs[i] || math.Abs(res[i].Score-wantScores[i]) > 1e-12 {
			t.Errorf("res[%d] = %+v, want id %d score %g", i, res[i], wantIDs[i], wantScores[i])
		}
	}
	// Result coordinates round-trip.
	if res[0].X != 4.6 || res[0].Y != 4.8 {
		t.Errorf("p1 location = (%g,%g)", res[0].X, res[0].Y)
	}
}

func TestQueryReportMetrics(t *testing.T) {
	e := loadPaperExample(t, Config{})
	rep, err := e.QueryReport(Query{K: 2, Radius: 1.5, Keywords: []string{"italian"}},
		WithAlgorithm(PSPQ), WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != PSPQ {
		t.Errorf("algorithm = %v", rep.Algorithm)
	}
	if rep.TotalMillis <= 0 {
		t.Errorf("total duration = %v", rep.TotalMillis)
	}
	// 5 of the 8 features share no keyword with the query: the planner
	// prunes their blocks, so the map phase reads the other 3 and has
	// nothing left to prune. The data objects reach reduce through the
	// data view, not the shuffle.
	if rep.Counters["map.records.in"] != 3 || rep.Plan.FeatureCellsPruned != 5 {
		t.Errorf("map.records.in = %d, feature cells pruned = %d, want 3 and 5", rep.Counters["map.records.in"], rep.Plan.FeatureCellsPruned)
	}
	if rep.Counters["spq.map.features.pruned"] != 0 {
		t.Errorf("map-side pruned = %d, want 0", rep.Counters["spq.map.features.pruned"])
	}
}

func TestEngineValidation(t *testing.T) {
	e := NewEngine(Config{})
	if _, err := e.Query(Query{K: 1, Radius: 1, Keywords: []string{"x"}}); err == nil {
		t.Error("query on empty engine succeeded")
	}
	if err := e.AddData(DataObject{ID: 1, X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(Feature{ID: 2, X: 1, Y: 1, Keywords: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	bad := []Query{
		{K: 0, Radius: 1, Keywords: []string{"a"}},
		{K: 1, Radius: -1, Keywords: []string{"a"}},
		{K: 1, Radius: 1},
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("invalid query %+v accepted", q)
		}
	}
	if _, err := e.Query(Query{K: 1, Radius: 1, Keywords: []string{"a"}}, WithGrid(-1)); err == nil {
		t.Error("negative grid accepted")
	}
}

func TestSealThenAppend(t *testing.T) {
	e := loadPaperExample(t, Config{})
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Errorf("second Seal = %v, want nil (idempotent)", err)
	}
	gen := e.Generation()
	// Loading after Seal appends into the in-memory delta: the records are
	// visible to the next query, no rebuild required.
	if err := e.AddData(DataObject{ID: 99, X: 2.9, Y: 1.1}); err != nil {
		t.Errorf("AddData after Seal = %v, want append", err)
	}
	if err := e.AddFeature(Feature{ID: 99, X: 2.9, Y: 1.15, Keywords: []string{"zanzibari"}}); err != nil {
		t.Errorf("AddFeature after Seal = %v, want append", err)
	}
	if n := e.DeltaLen(); n != 2 {
		t.Errorf("DeltaLen = %d, want 2", n)
	}
	if g := e.Generation(); g <= gen {
		t.Errorf("generation %d after appends, want > %d", g, gen)
	}
	// Duplicate-id validation spans the sealed base and the delta.
	if err := e.AddData(DataObject{ID: 1, X: 0, Y: 0}); err == nil {
		t.Error("sealed-base data id re-accepted after seal")
	}
	if err := e.AddData(DataObject{ID: 99, X: 0, Y: 0}); err == nil {
		t.Error("delta data id re-accepted")
	}
	res, err := e.Query(Query{K: 1, Radius: 0.5, Keywords: []string{"zanzibari"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 99 {
		t.Fatalf("query after append = %v, want appended object 99", res)
	}
}

func TestLenAndBounds(t *testing.T) {
	e := loadPaperExample(t, Config{})
	nd, nf := e.Len()
	if nd != 5 || nf != 8 {
		t.Errorf("Len = %d, %d", nd, nf)
	}
	minX, minY, maxX, maxY := e.Bounds()
	if minX != 1.8 || minY != 1.2 || maxX != 9.5 || maxY != 9.0 {
		t.Errorf("Bounds = %g %g %g %g", minX, minY, maxX, maxY)
	}
}

func TestDegenerateBounds(t *testing.T) {
	// All objects on one vertical line: the engine must pad the bounds
	// rather than panic on a zero-width grid.
	e := NewEngine(Config{})
	e.AddData(DataObject{ID: 1, X: 5, Y: 1}, DataObject{ID: 2, X: 5, Y: 9})
	e.AddFeature(Feature{ID: 3, X: 5, Y: 1.2, Keywords: []string{"a"}})
	res, err := e.Query(Query{K: 1, Radius: 0.5, Keywords: []string{"a"}}, WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1 {
		t.Errorf("res = %+v", res)
	}
}

func TestLoadSynthetic(t *testing.T) {
	for _, name := range []string{"uniform", "clustered", "flickr", "twitter"} {
		e := NewEngine(Config{})
		if err := e.LoadSynthetic(name, 400); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nd, nf := e.Len()
		if nd != 200 || nf != 200 {
			t.Fatalf("%s: Len = %d, %d", name, nd, nf)
		}
		kws := e.FrequentKeywords(3)
		if len(kws) != 3 {
			t.Fatalf("%s: FrequentKeywords = %v", name, kws)
		}
		res, err := e.Query(Query{K: 5, Radius: 0.1, Keywords: kws}, WithGrid(8))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res) == 0 {
			t.Errorf("%s: no results for frequent keywords", name)
		}
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score {
				t.Errorf("%s: results not sorted: %+v", name, res)
			}
		}
	}
	if err := NewEngine(Config{}).LoadSynthetic("nope", 10); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// All three algorithms must agree on synthetic data end to end through the
// public API and the DFS storage path.
func TestAlgorithmsAgreeViaPublicAPI(t *testing.T) {
	build := func() *Engine {
		e := NewEngine(Config{Nodes: 4, BlockSize: 4 << 10, Seed: 5})
		if err := e.LoadSynthetic("uniform", 600); err != nil {
			t.Fatal(err)
		}
		return e
	}
	var first []Result
	for i, alg := range Algorithms() {
		e := build()
		kws := e.FrequentKeywords(2)
		res, err := e.Query(Query{K: 10, Radius: 0.08, Keywords: kws},
			WithAlgorithm(alg), WithGrid(10))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if i == 0 {
			first = res
			continue
		}
		if len(res) != len(first) {
			t.Fatalf("%v: %d results vs %d", alg, len(res), len(first))
		}
		for j := range res {
			if math.Abs(res[j].Score-first[j].Score) > 1e-12 {
				t.Fatalf("%v: score[%d] = %v vs %v", alg, j, res[j].Score, first[j].Score)
			}
		}
	}
}

func TestWithReducers(t *testing.T) {
	e := loadPaperExample(t, Config{})
	res, err := e.Query(Query{K: 1, Radius: 1.5, Keywords: []string{"italian"}},
		WithGrid(4), WithReducers(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1 {
		t.Errorf("res = %+v", res)
	}
}

func TestFrequentKeywordsOrder(t *testing.T) {
	e := NewEngine(Config{})
	e.AddFeature(
		Feature{ID: 1, Keywords: []string{"common", "rare"}},
		Feature{ID: 2, Keywords: []string{"common"}},
		Feature{ID: 3, Keywords: []string{"common", "mid"}},
		Feature{ID: 4, Keywords: []string{"mid"}},
	)
	got := e.FrequentKeywords(10)
	want := []string{"common", "mid", "rare"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("FrequentKeywords = %v, want %v", got, want)
	}
}

func TestScoringModesViaPublicAPI(t *testing.T) {
	e := NewEngine(Config{})
	e.AddData(DataObject{ID: 1, X: 0, Y: 0})
	e.AddFeature(
		Feature{ID: 10, X: 0.9, Y: 0, Keywords: []string{"a"}},
		Feature{ID: 11, X: 0.1, Y: 0, Keywords: []string{"a", "b", "c", "d"}},
	)
	// Range: far perfect match wins with 1.0.
	res, err := e.Query(Query{K: 1, Radius: 1, Keywords: []string{"a"}},
		WithAlgorithm(PSPQ), WithGrid(2))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Score != 1 {
		t.Errorf("range score = %v", res[0].Score)
	}
	// Nearest: the close weak feature (Jaccard 1/4) defines the score.
	res, err = e.Query(Query{K: 1, Radius: 1, Keywords: []string{"a"}, Mode: ScoreNearest},
		WithAlgorithm(PSPQ), WithGrid(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Score-0.25) > 1e-12 {
		t.Errorf("nearest score = %v, want 0.25", res[0].Score)
	}
	// Influence decays with distance; score strictly between the two.
	res, err = e.Query(Query{K: 1, Radius: 1, Keywords: []string{"a"}, Mode: ScoreInfluence},
		WithGrid(2))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Score <= 0.25 || res[0].Score >= 1 {
		t.Errorf("influence score = %v", res[0].Score)
	}
	// Nearest + early termination is rejected.
	if _, err := e.Query(Query{K: 1, Radius: 1, Keywords: []string{"a"}, Mode: ScoreNearest},
		WithAlgorithm(ESPQSco), WithGrid(2)); err == nil {
		t.Error("nearest mode accepted by eSPQsco")
	}
}

// Concurrent queries on a sealed engine must be safe and consistent.
func TestConcurrentQueries(t *testing.T) {
	e := loadPaperExample(t, Config{})
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := e.Query(Query{K: 1, Radius: 1.5, Keywords: []string{"italian"}},
				WithAlgorithm(Algorithms()[g%3]), WithGrid(4))
			if err != nil {
				errs[g] = err
				return
			}
			if len(res) != 1 || res[0].ID != 1 {
				errs[g] = errConcurrent
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

var errConcurrent = errWrongResult{}

type errWrongResult struct{}

func (errWrongResult) Error() string { return "wrong concurrent result" }

// TestEmptyKeywordsThroughAPI: an empty word is not a keyword on any load
// path. A feature added with an empty keyword scores like the same feature
// loaded from a text line with a trailing comma — 1, not 1/2, for a query
// on its one real keyword — and an empty query word changes nothing.
func TestEmptyKeywordsThroughAPI(t *testing.T) {
	viaAPI := NewEngine(Config{})
	viaLines := NewEngine(Config{})
	for _, e := range []*Engine{viaAPI, viaLines} {
		if err := e.AddData(DataObject{ID: 1, X: 0.1, Y: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := viaAPI.AddFeature(Feature{ID: 7, X: 0.1, Y: 0, Keywords: []string{"pizza", ""}}); err != nil {
		t.Fatal(err)
	}
	if err := viaLines.LoadLines(strings.NewReader("F\t7\t0.1\t0\tpizza,\n")); err != nil {
		t.Fatal(err)
	}
	for _, kws := range [][]string{{"pizza"}, {"pizza", ""}} {
		for name, e := range map[string]*Engine{"AddFeature": viaAPI, "LoadLines": viaLines} {
			res, err := e.Query(Query{K: 1, Radius: 0.5, Keywords: kws})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 1 || res[0].Score != 1 {
				t.Errorf("%s feature, query %q: results %+v, want object 1 with score 1", name, kws, res)
			}
		}
	}
}

// TestUnknownQueryWordsNotInterned: query words are looked up, never
// interned, so a stream of queries with ever new unknown words leaves the
// dictionary as it was — yet an unknown word still counts in |q.W|: a
// feature carrying only "pizza" scores 1/2 against {pizza, unknown}.
func TestUnknownQueryWordsNotInterned(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.AddData(DataObject{ID: 1, X: 0.1, Y: 0}, DataObject{ID: 2, X: 0.9, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(Feature{ID: 7, X: 0.1, Y: 0, Keywords: []string{"pizza"}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	size := e.dict.Size()
	for i := 0; i < 200; i++ {
		opts := []QueryOption{WithCache(false)}
		unknown := fmt.Sprintf("unknown-%d", i)
		res, err := e.Query(Query{K: 1, Radius: 0.2, Keywords: []string{"pizza", unknown}}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != 1 || res[0].Score != 0.5 {
			t.Fatalf("query %d: results %+v, want object 1 with score 1/2", i, res)
		}
		if res, err := e.Query(Query{K: 1, Radius: 0.2, Keywords: []string{unknown}}, opts...); err != nil || len(res) != 0 {
			t.Fatalf("query %d on an unknown word alone: results %+v, err %v", i, res, err)
		}
	}
	if got := e.dict.Size(); got != size {
		t.Errorf("queries grew the dictionary from %d to %d words", size, got)
	}
}
