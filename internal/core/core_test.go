package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// paperExample builds the dataset of Example 1 / Table 2 and the query
// q.W = {italian}, r = 1.5, over the [0,10]x[0,10] space of Figure 1.
func paperExample() ([]data.Object, *text.Dict) {
	dict := text.NewDict()
	f := func(id uint64, x, y float64, words ...string) data.Object {
		return data.Object{
			Kind: data.FeatureObject, ID: id,
			Loc:      geo.Point{X: x, Y: y},
			Keywords: dict.InternAll(words),
		}
	}
	d := func(id uint64, x, y float64) data.Object {
		return data.Object{Kind: data.DataObject, ID: id, Loc: geo.Point{X: x, Y: y}}
	}
	objs := []data.Object{
		d(1, 4.6, 4.8), d(2, 7.5, 1.7), d(3, 8.9, 5.2), d(4, 1.8, 1.8), d(5, 1.9, 9.0),
		f(101, 2.8, 1.2, "italian", "gourmet"),
		f(102, 5.0, 3.8, "chinese", "cheap"),
		f(103, 8.7, 1.9, "sushi", "wine"),
		f(104, 3.8, 5.5, "italian"),
		f(105, 5.2, 5.1, "mexican", "exotic"),
		f(106, 7.4, 5.4, "greek", "traditional"),
		f(107, 3.0, 8.1, "italian", "spaghetti"),
		f(108, 9.5, 7.0, "indian"),
	}
	return objs, dict
}

func paperQuery(dict *text.Dict, k int) Query {
	return Query{K: k, Radius: 1.5, Keywords: dict.LookupAll([]string{"italian"})}
}

var paperBounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}

// TestPaperExample reproduces Example 1: the top-1 hotel is p1 with score 1
// (via f4), and the runner-ups are p4 and p5 with score 0.5.
func TestPaperExample(t *testing.T) {
	objs, dict := paperExample()
	q := paperQuery(dict, 1)

	got := NaiveCentralized(objs, q)
	if len(got) != 1 || got[0].ID != 1 || got[0].Score != 1 {
		t.Fatalf("naive top-1 = %+v, want p1 score 1", got)
	}

	// k = 3 returns p1 (1.0), then p4 and p5 (0.5 each).
	q3 := paperQuery(dict, 3)
	got3 := NaiveCentralized(objs, q3)
	if len(got3) != 3 {
		t.Fatalf("naive top-3 = %+v", got3)
	}
	wantIDs := []uint64{1, 4, 5}
	wantScores := []float64{1, 0.5, 0.5}
	for i := range wantIDs {
		if got3[i].ID != wantIDs[i] || got3[i].Score != wantScores[i] {
			t.Errorf("top-3[%d] = %+v, want id %d score %g", i, got3[i], wantIDs[i], wantScores[i])
		}
	}

	// Only 3 data objects have nonzero score, so k = 5 returns 3 results.
	q5 := paperQuery(dict, 5)
	if got5 := NaiveCentralized(objs, q5); len(got5) != 3 {
		t.Errorf("naive top-5 = %d results, want 3 (zero scores unreported)", len(got5))
	}
}

// All three MapReduce algorithms must answer the paper example exactly,
// on a 4x4 grid matching Figure 2.
func TestPaperExampleAllAlgorithms(t *testing.T) {
	objs, dict := paperExample()
	for _, alg := range Algorithms() {
		for _, k := range []int{1, 2, 3, 5} {
			q := paperQuery(dict, k)
			rep, err := Run(alg, mapreduce.NewMemorySource(objs, 3), q, Options{
				Bounds: paperBounds,
				GridN:  4,
			})
			if err != nil {
				t.Fatalf("%v k=%d: %v", alg, k, err)
			}
			want := NaiveCentralized(objs, q)
			assertSameTopK(t, rep.Results, want, objs, q)
		}
	}
}

// trueScore recomputes τ(p) by definition.
func trueScore(objs []data.Object, q Query, id uint64) float64 {
	var p data.Object
	found := false
	for _, o := range objs {
		if o.Kind == data.DataObject && o.ID == id {
			p, found = o, true
			break
		}
	}
	if !found {
		return -1
	}
	best := 0.0
	r2 := q.Radius * q.Radius
	for _, f := range objs {
		if f.Kind != data.FeatureObject {
			continue
		}
		if geo.Dist2(p.Loc, f.Loc) <= r2 {
			if w := q.Score(f); w > best {
				best = w
			}
		}
	}
	return best
}

// assertSameTopK validates got against the ground truth while tolerating
// ties: the score sequences must match exactly, and every returned id must
// carry its true score.
func assertSameTopK(t *testing.T, got, want []ResultItem, objs []data.Object, q Query) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
	}
	seen := map[uint64]bool{}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("result %d score = %v, want %v\n got: %+v\nwant: %+v",
				i, got[i].Score, want[i].Score, got, want)
		}
		if seen[got[i].ID] {
			t.Fatalf("duplicate id %d in results %+v", got[i].ID, got)
		}
		seen[got[i].ID] = true
		if ts := trueScore(objs, q, got[i].ID); math.Abs(ts-got[i].Score) > 1e-12 {
			t.Fatalf("result %d (id %d) reported score %v but true score is %v",
				i, got[i].ID, got[i].Score, ts)
		}
	}
}

// randomWorkload builds a reproducible random dataset and query.
func randomWorkload(seed int64, n int, vocab int, maxKw int) ([]data.Object, Query) {
	r := rand.New(rand.NewSource(seed))
	var objs []data.Object
	for i := 0; i < n; i++ {
		o := data.Object{
			ID:  uint64(i),
			Loc: geo.Point{X: r.Float64(), Y: r.Float64()},
		}
		if i%2 == 1 {
			o.Kind = data.FeatureObject
			nk := 1 + r.Intn(maxKw)
			ids := make([]uint32, nk)
			for j := range ids {
				ids[j] = uint32(r.Intn(vocab))
			}
			o.Keywords = text.NewKeywordSet(ids...)
		}
		objs = append(objs, o)
	}
	qk := make([]uint32, 1+r.Intn(3))
	for j := range qk {
		qk[j] = uint32(r.Intn(vocab))
	}
	q := Query{
		K:        1 + r.Intn(10),
		Radius:   0.01 + r.Float64()*0.2,
		Keywords: text.NewKeywordSet(qk...),
	}
	return objs, q
}

var unitBounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

// Property test: on random workloads, every MapReduce algorithm and the
// R-tree evaluator agree with the naive oracle, across grid sizes and
// parallelism levels.
func TestAlgorithmsMatchOracleRandomized(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		objs, q := randomWorkload(int64(trial), 400, 40, 6)
		want := NaiveCentralized(objs, q)
		gridN := 1 + trial%7
		assertSameTopK(t, RTreeCentralized(objs, q), want, objs, q)
		for _, alg := range Algorithms() {
			opts := Options{
				Bounds:  unitBounds,
				GridN:   gridN,
				Cluster: mapreduce.NewCluster(nil, 1+trial%4, 1+trial%3),
			}
			rep, err := Run(alg, mapreduce.NewMemorySource(objs, 1+trial%5), q, opts)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, alg, err)
			}
			assertSameTopK(t, rep.Results, want, objs, q)
		}
	}
}

// Radius values larger than a grid cell must still be answered correctly
// (duplication spans multiple rings).
func TestLargeRadiusCorrectness(t *testing.T) {
	objs, q := randomWorkload(99, 300, 20, 5)
	q.Radius = 0.45 // grid 5x5 over unit square: cell edge 0.2 < r
	want := NaiveCentralized(objs, q)
	for _, alg := range Algorithms() {
		rep, err := Run(alg, mapreduce.NewMemorySource(objs, 3), q, Options{
			Bounds: unitBounds, GridN: 5,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		assertSameTopK(t, rep.Results, want, objs, q)
	}
}

func TestQueryValidate(t *testing.T) {
	kw := text.NewKeywordSet(1)
	tests := []struct {
		name string
		q    Query
		ok   bool
	}{
		{"valid", Query{K: 1, Radius: 0.5, Keywords: kw}, true},
		{"zero radius ok", Query{K: 1, Radius: 0, Keywords: kw}, true},
		{"zero k", Query{K: 0, Radius: 0.5, Keywords: kw}, false},
		{"negative radius", Query{K: 1, Radius: -1, Keywords: kw}, false},
		{"no keywords", Query{K: 1, Radius: 0.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.q.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate = %v, ok = %v", err, tt.ok)
			}
		})
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	objs, dict := paperExample()
	src := mapreduce.NewMemorySource(objs, 1)
	if _, err := Run(PSPQ, src, Query{}, Options{Bounds: paperBounds, GridN: 2}); err == nil {
		t.Error("invalid query accepted")
	}
	q := paperQuery(dict, 1)
	if _, err := Run(PSPQ, src, q, Options{GridN: 2}); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := Run(Algorithm(42), src, q, Options{Bounds: paperBounds, GridN: 2}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestTopK(t *testing.T) {
	tk := NewTopK(2)
	if tk.Threshold() != 0 || tk.Len() != 0 {
		t.Fatal("fresh TopK not empty")
	}
	if tk.Update(ResultItem{ID: 1, Score: 0}) {
		t.Error("zero score accepted")
	}
	tk.Update(ResultItem{ID: 1, Score: 0.3})
	if tk.Threshold() != 0 {
		t.Errorf("τ with 1/2 items = %v, want 0", tk.Threshold())
	}
	tk.Update(ResultItem{ID: 2, Score: 0.5})
	if tk.Threshold() != 0.3 {
		t.Errorf("τ = %v, want 0.3", tk.Threshold())
	}
	// Equal to τ must not displace.
	if tk.Update(ResultItem{ID: 3, Score: 0.3}) {
		t.Error("tie displaced an item")
	}
	// Higher score displaces the minimum.
	tk.Update(ResultItem{ID: 4, Score: 0.9})
	items := tk.Items()
	if len(items) != 2 || items[0].ID != 4 || items[1].ID != 2 {
		t.Errorf("items = %+v", items)
	}
	if tk.Threshold() != 0.5 {
		t.Errorf("τ = %v, want 0.5", tk.Threshold())
	}
	// Improving a tracked item re-sorts and lifts τ.
	tk.Update(ResultItem{ID: 2, Score: 1.0})
	if tk.Threshold() != 0.9 {
		t.Errorf("τ after improvement = %v, want 0.9", tk.Threshold())
	}
	// Downgrade attempts are ignored.
	if tk.Update(ResultItem{ID: 2, Score: 0.1}) {
		t.Error("downgrade accepted")
	}
}

// TestTopKMatchesSortOracle holds TopK to its definition: any offer
// sequence — repeated ids, scores tied at τ, k below, near and above the
// number of distinct ids, short lists and long ones — yields exactly the canonical top-k of the
// per-id maxima, ids included.
func TestTopKMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 400; trial++ {
		ids := 1 + r.Intn(20)
		if trial%2 == 1 {
			ids = 1 + r.Intn(128)
		}
		k := 1 + r.Intn(ids+ids/2)
		levels := 2 + r.Intn(10) // few distinct scores: many ties at τ
		tk := NewTopK(k)
		best := map[uint64]float64{}
		for i := 0; i < 5*ids; i++ {
			id := uint64(r.Intn(ids))
			score := float64(r.Intn(levels)) / float64(levels)
			tk.Update(ResultItem{ID: id, Score: score})
			if score > best[id] {
				best[id] = score
			}
			if i%7 == 0 {
				checkTopK(t, tk, best, k, trial)
			}
		}
		checkTopK(t, tk, best, k, trial)
	}
}

// checkTopK compares tk with the canonical top-k of the per-id maxima.
func checkTopK(t *testing.T, tk *TopK, best map[uint64]float64, k, trial int) {
	t.Helper()
	var want []ResultItem
	for id, s := range best {
		if s > 0 {
			want = append(want, ResultItem{ID: id, Score: s})
		}
	}
	SortResults(want)
	if len(want) > k {
		want = want[:k]
	}
	got := tk.Items()
	if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
		t.Fatalf("trial %d, k=%d: got %+v\nwant %+v", trial, k, got, want)
	}
	tau := 0.0
	if len(want) == k {
		tau = want[k-1].Score
	}
	if tk.Threshold() != tau || tk.Len() != len(want) {
		t.Fatalf("trial %d, k=%d: τ=%v len=%d, want τ=%v len=%d", trial, k, tk.Threshold(), tk.Len(), tau, len(want))
	}
}

// BenchmarkTopKUpdate offers scores to one list: at k = 10 with every
// offer tied at τ (the offer the canonical tie-break must look at), and at
// k above the number of objects, where no offer is rejected and every one
// looks its id up.
func BenchmarkTopKUpdate(b *testing.B) {
	const n = 4096
	b.Run("k=10/tied", func(b *testing.B) {
		tk := NewTopK(10)
		for i := 0; i < b.N; i++ {
			tk.Update(ResultItem{ID: uint64(i % n), Score: 0.5})
		}
	})
	b.Run("k>=n", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		var tk *TopK
		for i := 0; i < b.N; i++ {
			if i%n == 0 {
				tk = NewTopK(1 << 40)
			}
			tk.Update(ResultItem{ID: uint64(i % n), Score: scores[i%n]})
		}
	})
}

// BenchmarkMergeTopK merges R sorted lists of k = 10: R = 8 is the task
// count of a 2-slot cluster, R = 2,300 the cell count of a fine grid.
func BenchmarkMergeTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range []int{8, 2300} {
		lists := make([][]ResultItem, r)
		for i := range lists {
			l := make([]ResultItem, 10)
			for j := range l {
				l[j] = ResultItem{ID: uint64(i*10 + j), Score: rng.Float64()}
			}
			SortResults(l)
			lists[i] = l
		}
		b.Run(fmt.Sprintf("R=%d/k=10", r), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := MergeTopK(10, lists...); len(got) != 10 {
					b.Fatalf("merged %d items", len(got))
				}
			}
		})
	}
}

func TestMergeTopK(t *testing.T) {
	a := []ResultItem{{ID: 1, Score: 0.9}, {ID: 2, Score: 0.4}}
	b := []ResultItem{{ID: 3, Score: 0.7}, {ID: 4, Score: 0.4}}
	got := MergeTopK(3, a, b)
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 3 {
		t.Errorf("merge = %+v", got)
	}
	// Tie at 0.4: lower id wins.
	if got[2].ID != 2 {
		t.Errorf("tie break: %+v", got[2])
	}
	if len(MergeTopK(5)) != 0 {
		t.Error("empty merge should be empty")
	}
	// Any number of sorted lists, empty ones and ties included, merge to
	// the canonical top-k of their concatenation.
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		lists := make([][]ResultItem, r.Intn(12))
		var all []ResultItem
		for i := range lists {
			for j := r.Intn(6); j > 0; j-- {
				lists[i] = append(lists[i], ResultItem{ID: uint64(len(all)), Score: float64(1+r.Intn(4)) / 4})
				all = append(all, lists[i][len(lists[i])-1])
			}
			SortResults(lists[i])
		}
		k := 1 + r.Intn(len(all)+2)
		SortResults(all)
		if len(all) > k {
			all = all[:k]
		}
		if got := MergeTopK(k, lists...); !reflect.DeepEqual(got, all) && len(all) > 0 {
			t.Fatalf("trial %d, k=%d: got %+v, want %+v", trial, k, got, all)
		}
	}
}

// Early termination must actually reduce the number of features examined:
// on a workload with many relevant features, eSPQsco must examine far
// fewer than pSPQ, and eSPQlen must never examine more than pSPQ.
//
// The reduce tasks' counts move one way only. With one cell per task
// (R = gridN²) each task's Lk is its cell's, and the counts equal those of
// per-cell lists, recorded below. With fewer tasks a later cell starts
// from the τ its task's earlier cells reached, so eSPQlen and eSPQsco
// examine no more features and terminate no fewer groups — exact
// comparisons, because their counts do not depend on arrival order — and
// each task emits one list.
func TestEarlyTerminationExaminesFewerFeatures(t *testing.T) {
	objs, q := randomWorkload(7, 2000, 10, 4)
	q.Radius = 0.1
	const gridN = 3
	type counts struct{ examined, terminated int64 }
	perCell := map[int]map[Algorithm]counts{
		3:  {ESPQLen: {517, 9}, ESPQSco: {29, 9}},
		40: {ESPQLen: {646, 6}, ESPQSco: {84, 9}},
	}
	for _, k := range []int{3, 40} {
		q.K = k
		run := func(alg Algorithm, r int) (counts, int64) {
			t.Helper()
			rep, err := Run(alg, mapreduce.NewMemorySource(objs, 4), q, Options{
				Bounds: unitBounds, GridN: gridN, NumReducers: r,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := rep.Counters
			return counts{c[CounterFeaturesExamined], c[CounterEarlyTerminations]}, c[mapreduce.CounterOutputRecords]
		}
		examined := map[Algorithm]int64{}
		for _, alg := range Algorithms() {
			c, _ := run(alg, gridN*gridN)
			examined[alg] = c.examined
		}
		if examined[PSPQ] == 0 {
			t.Fatal("pSPQ examined no features; workload too sparse")
		}
		if examined[ESPQSco] >= examined[PSPQ] {
			t.Errorf("k=%d: eSPQsco examined %d features, pSPQ %d — no early termination benefit",
				k, examined[ESPQSco], examined[PSPQ])
		}
		if examined[ESPQLen] > examined[PSPQ] {
			t.Errorf("k=%d: eSPQlen examined %d > pSPQ %d", k, examined[ESPQLen], examined[PSPQ])
		}
		for _, alg := range []Algorithm{ESPQLen, ESPQSco} {
			cell, _ := run(alg, gridN*gridN)
			if cell != perCell[k][alg] {
				t.Errorf("k=%d %v, one cell per task: (examined, terminated) = %v, want the per-cell lists' %v", k, alg, cell, perCell[k][alg])
			}
			for _, r := range []int{1, 2, 4} {
				c, out := run(alg, r)
				if c.examined > cell.examined || c.terminated < cell.terminated {
					t.Errorf("k=%d %v, R=%d: (examined, terminated) = %v, one cell per task %v", k, alg, r, c, cell)
				}
				if r == 1 && c.examined >= cell.examined {
					t.Errorf("k=%d %v: one task examined %d features, one per cell %d: τ not carried across cells", k, alg, c.examined, cell.examined)
				}
				if out > int64(r) {
					t.Errorf("k=%d %v, R=%d: %d output records, want one list per task", k, alg, r, out)
				}
			}
		}
	}
}

// Fewer reducers than cells: reduce tasks process several cells as
// separate groups and results are unchanged.
func TestFewerReducersThanCells(t *testing.T) {
	objs, q := randomWorkload(17, 600, 25, 5)
	want := NaiveCentralized(objs, q)
	for _, alg := range Algorithms() {
		rep, err := Run(alg, mapreduce.NewMemorySource(objs, 3), q, Options{
			Bounds: unitBounds, GridN: 6, NumReducers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTopK(t, rep.Results, want, objs, q)
	}
}

// Map- and reduce-task failures with retry enabled must not change results,
// and the failed attempts must leave no trace in the counters.
func TestFailureInjectionRecovers(t *testing.T) {
	objs, q := randomWorkload(23, 400, 20, 5)
	want := NaiveCentralized(objs, q)
	rep, err := Run(ESPQSco, mapreduce.NewMemorySource(objs, 3), q, Options{
		Bounds:      unitBounds,
		GridN:       4,
		MaxAttempts: 3,
		FaultInjector: func(kind mapreduce.TaskKind, taskID, attempt int) error {
			if attempt == 1 && taskID%3 == 0 {
				return errTestInjected
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTopK(t, rep.Results, want, objs, q)
	if rep.Counters[mapreduce.CounterRetryMap] == 0 || rep.Counters[mapreduce.CounterRetryReduce] == 0 {
		t.Errorf("retries map=%d reduce=%d, want both > 0 despite injected failures",
			rep.Counters[mapreduce.CounterRetryMap], rep.Counters[mapreduce.CounterRetryReduce])
	}
	if got := rep.Counters[mapreduce.CounterMapRecordsIn]; got != int64(len(objs)) {
		t.Errorf("map.records.in = %d, want %d (failed attempts must not count)", got, len(objs))
	}
}

var errTestInjected = errInjected{}

type errInjected struct{}

func (errInjected) Error() string { return "injected fault" }

// The duplication counter must be positive whenever the radius is positive
// and features lie near cell borders, and zero for radius 0.
func TestDuplicationCounter(t *testing.T) {
	objs, q := randomWorkload(31, 500, 5, 3)
	rep, err := Run(PSPQ, mapreduce.NewMemorySource(objs, 2), q, Options{
		Bounds: unitBounds, GridN: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters[CounterDuplicates] == 0 {
		t.Error("no duplicates recorded for positive radius")
	}

	q0 := q
	q0.Radius = 0
	rep0, err := Run(PSPQ, mapreduce.NewMemorySource(objs, 2), q0, Options{
		Bounds: unitBounds, GridN: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Counters[CounterDuplicates] != 0 {
		t.Errorf("radius 0 produced %d duplicates", rep0.Counters[CounterDuplicates])
	}
}

// Algorithm and Kind stringers.
func TestStringers(t *testing.T) {
	if PSPQ.String() != "pSPQ" || ESPQLen.String() != "eSPQlen" || ESPQSco.String() != "eSPQsco" {
		t.Error("algorithm names")
	}
	if Algorithm(9).String() == "" {
		t.Error("unknown algorithm name empty")
	}
}
