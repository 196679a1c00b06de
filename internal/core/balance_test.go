package core

import (
	"math/rand"
	"reflect"
	"testing"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// skewedWorkload puts most objects into one corner of the unit square,
// mimicking the clustered dataset that overburdens reducers in §7.2.4.
func skewedWorkload(n int) ([]data.Object, Query) {
	r := rand.New(rand.NewSource(3))
	var objs []data.Object
	for i := 0; i < n; i++ {
		var x, y float64
		if i%10 < 8 { // 80% in a hot corner
			x, y = r.Float64()*0.2, r.Float64()*0.2
		} else {
			x, y = r.Float64(), r.Float64()
		}
		o := data.Object{ID: uint64(i), Loc: gp(x, y)}
		if i%2 == 1 {
			o.Kind = data.FeatureObject
			ids := make([]uint32, 1+r.Intn(4))
			for j := range ids {
				ids[j] = uint32(r.Intn(20))
			}
			o.Keywords = text.NewKeywordSet(ids...)
		}
		objs = append(objs, o)
	}
	q := Query{K: 5, Radius: 0.02, Keywords: text.NewKeywordSet(1, 2, 3)}
	return objs, q
}

func gp(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

func TestBalanceCellsLPT(t *testing.T) {
	weights := []float64{100, 1, 1, 1, 90, 1, 1, 80}
	assign := BalanceCells(weights, 3)
	if len(assign) != len(weights) {
		t.Fatalf("assign len %d", len(assign))
	}
	// The three heavy cells must land on three distinct reducers.
	heavy := map[int32]bool{}
	for _, cell := range []int{0, 4, 7} {
		if heavy[assign[cell]] {
			t.Fatalf("two heavy cells share reducer: %v", assign)
		}
		heavy[assign[cell]] = true
	}
	lpt := MaxLoad(weights, assign, 3)
	rr := MaxLoad(weights, RoundRobinAssign(len(weights), 3), 3)
	if lpt > rr {
		t.Errorf("LPT max load %v worse than round-robin %v", lpt, rr)
	}
}

func TestCellWeightsCountDuplicates(t *testing.T) {
	g := grid.NewSquare(4)
	kw := text.NewKeywordSet(1)
	objs := []data.Object{
		{Kind: data.DataObject, ID: 1, Loc: gp(0.1, 0.1)},
		// Feature near a cell corner: duplicated to 3 neighbors.
		{Kind: data.FeatureObject, ID: 2, Loc: gp(0.249, 0.249), Keywords: kw},
		// Irrelevant feature: no keyword overlap, must not count.
		{Kind: data.FeatureObject, ID: 3, Loc: gp(0.6, 0.6), Keywords: text.NewKeywordSet(9)},
	}
	q := Query{K: 1, Radius: 0.01, Keywords: kw}
	w, err := CellWeights(mapreduce.NewMemorySource(objs, 1), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 16 {
		t.Fatalf("weights len %d", len(w))
	}
	// Cell 0 holds 1 data + 1 feature: weight (1+1)*(1+1) = 4.
	if w[0] != 4 {
		t.Errorf("w[0] = %v, want 4", w[0])
	}
	// Neighbors of the corner feature got a duplicate: (0+1)*(1+1) = 2.
	for _, c := range []int{1, 4, 5} {
		if w[c] != 2 {
			t.Errorf("w[%d] = %v, want 2 (duplicate)", c, w[c])
		}
	}
	// Cell of the irrelevant feature: weight 1 (smoothing only).
	cIrr := g.CellOf(gp(0.6, 0.6))
	if w[cIrr] != 1 {
		t.Errorf("irrelevant feature counted: w[%d] = %v", cIrr, w[cIrr])
	}
}

// Load balancing must reduce the maximum reducer load on skewed data, and
// the LPT table it builds must not change query results.
func TestLoadBalanceSkewedData(t *testing.T) {
	objs, q := skewedWorkload(3000)
	g := grid.NewSquare(10)
	weights, err := CellWeights(mapreduce.NewMemorySource(objs, 4), g, q)
	if err != nil {
		t.Fatal(err)
	}
	const reducers = 4
	table := BalanceCells(weights, reducers)
	lpt := MaxLoad(weights, table, reducers)
	rr := MaxLoad(weights, RoundRobinAssign(len(weights), reducers), reducers)
	if lpt >= rr {
		t.Errorf("LPT max load %.0f not better than round-robin %.0f on skewed data", lpt, rr)
	}

	want := NaiveCentralized(objs, q)
	for _, alg := range Algorithms() {
		rep, err := Run(alg, mapreduce.NewMemorySource(objs, 4), q, Options{
			Bounds:      unitBounds,
			GridN:       10,
			NumReducers: reducers,
			CellReducer: table,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		assertSameTopK(t, rep.Results, want, objs, q)
	}
}

// TestCellReducerTable: any cell→reducer table, including one that leaves
// reducers without a cell, returns exactly the R-tree oracle's results for
// all three algorithms; a table of the wrong length or with an entry
// outside [0, R) is an error, not a panic.
func TestCellReducerTable(t *testing.T) {
	const gridN, reducers = 6, 5
	r := rand.New(rand.NewSource(7))
	for seed := int64(0); seed < 4; seed++ {
		objs, q := randomWorkload(40+seed, 600, 20, 4)
		want := RTreeCentralized(objs, q)
		table := make([]int32, gridN*gridN)
		for i := range table {
			// Reducers 0 and 1 never get a cell.
			table[i] = int32(2 + r.Intn(reducers-2))
		}
		for _, alg := range Algorithms() {
			rep, err := Run(alg, mapreduce.NewMemorySource(objs, 3), q, Options{
				Bounds: unitBounds, GridN: gridN, NumReducers: reducers, CellReducer: table,
			})
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, alg, err)
			}
			if !reflect.DeepEqual(rep.Results, want) {
				t.Fatalf("seed %d %v: results %+v, oracle %+v", seed, alg, rep.Results, want)
			}
		}
	}

	objs, q := randomWorkload(50, 100, 20, 4)
	for name, table := range map[string][]int32{
		"short":        make([]int32, gridN*gridN-1),
		"long":         make([]int32, gridN*gridN+1),
		"out of range": append(make([]int32, gridN*gridN-1), reducers),
		"negative":     append(make([]int32, gridN*gridN-1), -1),
	} {
		_, err := Run(PSPQ, mapreduce.NewMemorySource(objs, 2), q, Options{
			Bounds: unitBounds, GridN: gridN, NumReducers: reducers, CellReducer: table,
		})
		if err == nil {
			t.Errorf("%s table: Run succeeded, want an error", name)
		}
	}
}
