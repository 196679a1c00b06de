package grid

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spq/internal/geo"
)

func TestCellOfCorners(t *testing.T) {
	g := NewSquare(4)
	tests := []struct {
		name string
		p    geo.Point
		want CellID
	}{
		{"min corner", geo.Point{X: 0, Y: 0}, 0},
		{"first cell interior", geo.Point{X: 0.1, Y: 0.1}, 0},
		{"second column", geo.Point{X: 0.3, Y: 0.1}, 1},
		{"second row", geo.Point{X: 0.1, Y: 0.3}, 4},
		{"max corner clamps", geo.Point{X: 1, Y: 1}, 15},
		{"outside clamps low", geo.Point{X: -5, Y: -5}, 0},
		{"outside clamps high", geo.Point{X: 5, Y: 5}, 15},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := g.CellOf(tt.p); got != tt.want {
				t.Errorf("CellOf(%v) = %d, want %d", tt.p, got, tt.want)
			}
		})
	}
}

// Reproduce the paper's Figure 2: a 4x4 grid over [0,10]x[0,10], r = 1.5.
// f7 = (3.0, 8.1) lies in the paper's cell 14 and must be duplicated to
// the paper's cells 9, 10 and 13. The paper numbers cells 1..16
// left-to-right bottom-to-top; our ids are the same minus one.
func TestPaperFigure2Duplication(t *testing.T) {
	g := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 4, 4)
	f7 := geo.Point{X: 3.0, Y: 8.1}
	if got, want := g.CellOf(f7), CellID(13); got != want { // paper cell 14
		t.Fatalf("CellOf(f7) = %d, want %d", got, want)
	}
	got := g.DuplicationTargets(f7, 1.5, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []CellID{8, 9, 12} // paper cells 9, 10, 13
	if len(got) != len(want) {
		t.Fatalf("DuplicationTargets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DuplicationTargets = %v, want %v", got, want)
		}
	}
}

func TestCellRectTilesBounds(t *testing.T) {
	g := New(geo.Rect{MinX: -3, MinY: 2, MaxX: 9, MaxY: 5}, 5, 3)
	var area float64
	union := geo.Rect{MinX: 1, MaxX: 0} // empty
	for c := 0; c < g.NumCells(); c++ {
		r := g.CellRect(CellID(c))
		area += r.Area()
		union = union.Union(r)
	}
	if math.Abs(area-g.Bounds().Area()) > 1e-9 {
		t.Errorf("cell areas sum to %v, bounds area %v", area, g.Bounds().Area())
	}
	if union != g.Bounds() {
		t.Errorf("union of cells = %v, bounds %v", union, g.Bounds())
	}
}

func TestCellOfMatchesCellRect(t *testing.T) {
	g := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 7, MaxY: 3}, 9, 4)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := geo.Point{X: r.Float64() * 7, Y: r.Float64() * 3}
		c := g.CellOf(p)
		if !g.Valid(c) {
			t.Fatalf("invalid cell %d for %v", c, p)
		}
		if !g.CellRect(c).Contains(p) {
			t.Fatalf("CellRect(%d)=%v does not contain %v", c, g.CellRect(c), p)
		}
	}
}

func TestColRowRoundTrip(t *testing.T) {
	g := New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 7, 5)
	for c := 0; c < g.NumCells(); c++ {
		col, row := g.ColRow(CellID(c))
		if got := g.id(col, row); got != CellID(c) {
			t.Fatalf("round trip failed for cell %d: col=%d row=%d -> %d", c, col, row, got)
		}
	}
}

// Lemma 1 coverage: for every data point p and feature f with d(p,f) <= r,
// f must land in p's cell either as primary or as duplicate.
func TestLemma1Coverage(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(12)
		g := NewSquare(n)
		radius := r.Float64() * 1.5 * g.CellWidth() // sometimes exceeds α/2, even α
		var data, feats []geo.Point
		for i := 0; i < 150; i++ {
			data = append(data, geo.Point{X: r.Float64(), Y: r.Float64()})
			feats = append(feats, geo.Point{X: r.Float64(), Y: r.Float64()})
		}
		// cells[f] = set of cells f is assigned to (primary + duplicates)
		assigned := make([]map[CellID]bool, len(feats))
		var scratch []CellID
		for i, f := range feats {
			m := map[CellID]bool{g.CellOf(f): true}
			scratch = g.DuplicationTargets(f, radius, scratch[:0])
			for _, c := range scratch {
				m[c] = true
			}
			assigned[i] = m
		}
		for _, p := range data {
			pc := g.CellOf(p)
			for i, f := range feats {
				if geo.Dist(p, f) <= radius && !assigned[i][pc] {
					t.Fatalf("grid %dx%d r=%v: feature %v within range of data %v (cell %d) but not assigned there",
						n, n, radius, f, p, pc)
				}
			}
		}
	}
}

// Duplication targets must be exactly the cells with MINDIST <= r
// (no false positives either), verified against a brute-force scan.
func TestDuplicationTargetsExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := NewSquare(8)
	for trial := 0; trial < 500; trial++ {
		f := geo.Point{X: r.Float64(), Y: r.Float64()}
		radius := r.Float64() * 0.3
		got := g.DuplicationTargets(f, radius, nil)
		gotSet := make(map[CellID]bool, len(got))
		for _, c := range got {
			if c == g.CellOf(f) {
				t.Fatalf("enclosing cell included in duplication targets")
			}
			if gotSet[c] {
				t.Fatalf("duplicate cell id %d in targets", c)
			}
			gotSet[c] = true
		}
		for c := 0; c < g.NumCells(); c++ {
			id := CellID(c)
			if id == g.CellOf(f) {
				continue
			}
			want := geo.MinDist2(f, g.CellRect(id)) <= radius*radius
			if gotSet[id] != want {
				t.Fatalf("cell %d: got %v want %v (f=%v r=%v)", id, gotSet[id], want, f, radius)
			}
		}
	}
}

func TestCellsWithinDistIncludesOwnCell(t *testing.T) {
	g := NewSquare(10)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p := geo.Point{X: r.Float64(), Y: r.Float64()}
		cells := g.CellsWithinDist(p, 0.05, nil)
		found := false
		for _, c := range cells {
			if c == g.CellOf(p) {
				found = true
			}
		}
		if !found {
			t.Fatalf("own cell missing for %v: %v", p, cells)
		}
	}
}

func TestAreaBreakdownSumsToCell(t *testing.T) {
	for _, c := range []struct{ a, r float64 }{{1, 0.1}, {1, 0.5}, {2, 0.3}, {10, 5}} {
		a1, a2, a3, a4 := AreaBreakdown(c.a, c.r)
		if sum := a1 + a2 + a3 + a4; math.Abs(sum-c.a*c.a) > 1e-9 {
			t.Errorf("a=%v r=%v: areas sum to %v, want %v", c.a, c.r, sum, c.a*c.a)
		}
	}
}

func TestDuplicationFactorModelValues(t *testing.T) {
	// df(α, 0) = 1: no duplication with zero radius.
	if got := DuplicationFactorModel(1, 0); got != 1 {
		t.Errorf("df(1,0) = %v, want 1", got)
	}
	// Worst case at α = 2r: 3 + π/4.
	if got, want := DuplicationFactorModel(2, 1), MaxDuplicationFactorModel(); math.Abs(got-want) > 1e-12 {
		t.Errorf("df(2,1) = %v, want %v", got, want)
	}
	// Monotone decreasing in α for fixed r.
	prev := math.Inf(1)
	for a := 0.2; a <= 5; a += 0.1 {
		df := DuplicationFactorModel(a, 0.1)
		if df > prev+1e-12 {
			t.Fatalf("df not decreasing in α at %v", a)
		}
		prev = df
	}
}

// Section 6.2 validation: measured duplication on uniform features matches
// the analytical model within a small relative error.
func TestMeasuredDuplicationMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{5, 10, 20} {
		g := NewSquare(n)
		// Sample features uniformly over the interior cells only: a feature
		// in a boundary cell has fewer on-grid neighbors to duplicate to, so
		// only the interior obeys the infinite-grid model of Section 6.2.
		lo, hi := g.CellWidth(), 1-g.CellWidth()
		feats := make([]geo.Point, 60000)
		for i := range feats {
			feats[i] = geo.Point{X: lo + r.Float64()*(hi-lo), Y: lo + r.Float64()*(hi-lo)}
		}
		for _, frac := range []float64{0.1, 0.25, 0.5} {
			radius := frac * g.CellWidth()
			got := g.MeasureDuplication(feats, radius)
			want := DuplicationFactorModel(g.CellWidth(), radius)
			if math.Abs(got-want) > 0.02*want {
				t.Errorf("grid %d frac %v: measured df %v vs model %v", n, frac, got, want)
			}
		}
	}
}

// Section 6.3: the df·α⁴ reducer-cost proxy must strictly increase with the
// cell size for fixed r.
func TestReducerCostModelIncreasesWithCellSize(t *testing.T) {
	const radius = 0.01
	prev := 0.0
	for a := 0.02; a <= 1.0; a += 0.02 {
		cost := ReducerCostModel(a, radius)
		if cost <= prev {
			t.Fatalf("cost model not increasing at α=%v: %v <= %v", a, cost, prev)
		}
		prev = cost
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		})
	}
	assertPanics("zero dims", func() { New(geo.Rect{MaxX: 1, MaxY: 1}, 0, 1) })
	assertPanics("neg dims", func() { New(geo.Rect{MaxX: 1, MaxY: 1}, 3, -1) })
	assertPanics("empty bounds", func() { New(geo.Rect{MinX: 1, MaxX: 0, MaxY: 1}, 2, 2) })
	assertPanics("degenerate bounds", func() { New(geo.Rect{MaxX: 0, MaxY: 1}, 2, 2) })
}

func TestDuplicationTargetsNegativeRadius(t *testing.T) {
	g := NewSquare(4)
	if got := g.DuplicationTargets(geo.Point{X: 0.5, Y: 0.5}, -1, nil); len(got) != 0 {
		t.Errorf("negative radius should yield no targets, got %v", got)
	}
}

// TestHugeRadiusCoversGrid: a radius far beyond the grid selects the same
// cells, in the same order, as one that just covers it — it neither
// overflows the ring count into selecting nothing nor walks the rings
// outside the grid one by one.
func TestHugeRadiusCoversGrid(t *testing.T) {
	g := New(geo.Rect{MinX: -3, MinY: 1, MaxX: 5, MaxY: 2}, 8, 5)
	cover := math.Hypot(8, 1) // the bounds' diagonal
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := geo.Point{X: -3 + 8*r.Float64(), Y: 1 + r.Float64()}
		wantDup := g.DuplicationTargets(p, cover, nil)
		wantNear := g.CellsWithinDist(p, cover, nil)
		if len(wantDup) != g.NumCells()-1 || len(wantNear) != g.NumCells() {
			t.Fatalf("radius %g at %v: %d and %d cells, want %d and %d",
				cover, p, len(wantDup), len(wantNear), g.NumCells()-1, g.NumCells())
		}
		// The overflowing radii come first, so a regression fails fast
		// rather than hanging on 1e9.
		for _, radius := range []float64{1e20, math.MaxFloat64, 1e9} {
			if got := g.DuplicationTargets(p, radius, nil); !slices.Equal(got, wantDup) {
				t.Fatalf("DuplicationTargets(%v, %g) = %v, want %v", p, radius, got, wantDup)
			}
			if got := g.CellsWithinDist(p, radius, nil); !slices.Equal(got, wantNear) {
				t.Fatalf("CellsWithinDist(%v, %g) = %v, want %v", p, radius, got, wantNear)
			}
		}
	}
}

func BenchmarkDuplicationTargets(b *testing.B) {
	g := NewSquare(100)
	p := geo.Point{X: 0.5001, Y: 0.5001}
	var dst []CellID
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = g.DuplicationTargets(p, 0.005, dst[:0])
	}
}
