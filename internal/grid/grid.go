// Package grid implements the query-time uniform grid partitioning of
// Section 4.1 of the paper: the data space is split into R = Nx*Ny regular
// cells, every object is assigned to its enclosing cell, and feature
// objects are additionally duplicated to every neighboring cell Ci with
// MINDIST(f, Ci) <= r (Lemma 1) so each cell becomes an independent work
// unit.
//
// The package also implements the analytical results of Section 6: the
// expected duplication factor df = πr²/a² + 4r/a + 1 for uniformly
// distributed feature objects (Section 6.2) and the per-reducer cost model
// df·a⁴ used to analyze the choice of cell size (Section 6.3).
package grid

import (
	"fmt"
	"math"

	"spq/internal/geo"
)

// CellID identifies a grid cell. Cells are numbered row-major starting at 0
// for the cell containing the minimum corner of the bounds, matching the
// numbering of Figure 2 in the paper (left-to-right, bottom-to-top).
type CellID int32

// Grid is a regular uniform grid over a bounding rectangle. Create one with
// New. A Grid is immutable and safe for concurrent use.type
type Grid struct {
	bounds geo.Rect
	nx, ny int
	cw, ch float64 // cell width and height
}

// New returns an nx-by-ny grid over bounds. It panics if nx or ny is not
// positive or bounds is degenerate, since a malformed grid is a programming
// error rather than a runtime condition.
func New(bounds geo.Rect, nx, ny int) *Grid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %dx%d", nx, ny))
	}
	if bounds.Empty() || bounds.Width() == 0 || bounds.Height() == 0 {
		panic(fmt.Sprintf("grid: degenerate bounds %v", bounds))
	}
	return &Grid{
		bounds: bounds,
		nx:     nx,
		ny:     ny,
		cw:     bounds.Width() / float64(nx),
		ch:     bounds.Height() / float64(ny),
	}
}

// NewSquare returns an n-by-n grid over the unit square [0,1]x[0,1], the
// configuration used throughout the paper's experiments ("grid size 50"
// means 50x50).
func NewSquare(n int) *Grid {
	return New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, n, n)
}

// Bounds returns the grid's bounding rectangle.
func (g *Grid) Bounds() geo.Rect { return g.bounds }

// Dims returns the number of columns and rows.
func (g *Grid) Dims() (nx, ny int) { return g.nx, g.ny }

// NumCells returns the total number of cells R.
func (g *Grid) NumCells() int { return g.nx * g.ny }

// CellWidth returns the edge length of a cell along x (the paper's α for
// square cells).
func (g *Grid) CellWidth() float64 { return g.cw }

// CellHeight returns the edge length of a cell along y.
func (g *Grid) CellHeight() float64 { return g.ch }

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("grid %dx%d over %v", g.nx, g.ny, g.bounds)
}

// clampIdx clamps i into [0, n-1].
func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// colRow returns the column and row of the cell enclosing p. Points outside
// the bounds are clamped to the nearest boundary cell so that every object
// is assigned to exactly one cell even in the presence of floating-point
// drift at the edges.
func (g *Grid) colRow(p geo.Point) (col, row int) {
	col = clampIdx(int((p.X-g.bounds.MinX)/g.cw), g.nx)
	row = clampIdx(int((p.Y-g.bounds.MinY)/g.ch), g.ny)
	return col, row
}

// CellOf returns the id of the cell enclosing p.
func (g *Grid) CellOf(p geo.Point) CellID {
	col, row := g.colRow(p)
	return g.id(col, row)
}

func (g *Grid) id(col, row int) CellID { return CellID(row*g.nx + col) }

// ColRow returns the column and row of cell c.
func (g *Grid) ColRow(c CellID) (col, row int) {
	return int(c) % g.nx, int(c) / g.nx
}

// Valid reports whether c identifies a cell of this grid.
func (g *Grid) Valid(c CellID) bool {
	return c >= 0 && int(c) < g.NumCells()
}

// CellRect returns the closed rectangle covered by cell c. The last row and
// column absorb any floating-point remainder so that the union of all cell
// rects is exactly the grid bounds.
func (g *Grid) CellRect(c CellID) geo.Rect {
	col, row := g.ColRow(c)
	r := geo.Rect{
		MinX: g.bounds.MinX + float64(col)*g.cw,
		MinY: g.bounds.MinY + float64(row)*g.ch,
		MaxX: g.bounds.MinX + float64(col+1)*g.cw,
		MaxY: g.bounds.MinY + float64(row+1)*g.ch,
	}
	if col == g.nx-1 {
		r.MaxX = g.bounds.MaxX
	}
	if row == g.ny-1 {
		r.MaxY = g.bounds.MaxY
	}
	return r
}

// ringSpan returns the indexes lo..hi, along one axis of n cells of the
// given edge, within ceil(radius/edge) rings of index i, clamped to the
// grid. The ring count is capped at n while still a float64, so a radius
// far beyond the grid neither overflows int nor walks rows and columns
// outside it.
func ringSpan(i int, radius, edge float64, n int) (lo, hi int) {
	rings := n // n rings reach every cell
	if r := math.Ceil(radius / edge); r < float64(n) {
		rings = int(r)
	}
	return max(i-rings, 0), min(i+rings, n-1)
}

// DuplicationTargets appends to dst the ids of every cell other than f's
// enclosing cell whose MINDIST to f is at most radius — the exact set of
// cells Lemma 1 requires the feature object f to be duplicated to. The
// enclosing cell itself is not included. dst is returned to allow reuse of
// the backing array across calls on hot paths.
//
// Only the cells within ceil(radius/cellEdge) rings of the enclosing cell
// that lie inside the grid are inspected, so the cost is O((radius/α)²),
// and never more than O(R).
func (g *Grid) DuplicationTargets(f geo.Point, radius float64, dst []CellID) []CellID {
	if radius < 0 {
		return dst
	}
	col, row := g.colRow(f)
	c0, c1 := ringSpan(col, radius, g.cw, g.nx)
	r0, r1 := ringSpan(row, radius, g.ch, g.ny)
	r2 := radius * radius
	for cr := r0; cr <= r1; cr++ {
		for cc := c0; cc <= c1; cc++ {
			if cc == col && cr == row {
				continue
			}
			c := g.id(cc, cr)
			if geo.MinDist2(f, g.CellRect(c)) <= r2 {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// CellsWithinDist appends to dst the ids of every cell whose MINDIST to p
// is at most radius, including p's own cell. It is the cell-selection
// primitive used by the centralized grid-indexed baseline to find candidate
// feature cells around a data object.
func (g *Grid) CellsWithinDist(p geo.Point, radius float64, dst []CellID) []CellID {
	if radius < 0 {
		return dst
	}
	col, row := g.colRow(p)
	c0, c1 := ringSpan(col, radius, g.cw, g.nx)
	r0, r1 := ringSpan(row, radius, g.ch, g.ny)
	r2 := radius * radius
	for cr := r0; cr <= r1; cr++ {
		for cc := c0; cc <= c1; cc++ {
			c := g.id(cc, cr)
			if geo.MinDist2(p, g.CellRect(c)) <= r2 {
				dst = append(dst, c)
			}
		}
	}
	return dst
}

// DuplicationFactorModel returns the expected duplication factor of Section
// 6.2 for uniformly distributed feature objects:
//
//	df = πr²/α² + 4r/α + 1
//
// where α is the cell edge length and r the query radius. The model is
// derived under r <= α/2; for larger radii it is only an approximation and
// the measured factor should be used instead (see MeasureDuplication).
func DuplicationFactorModel(cellEdge, radius float64) float64 {
	if cellEdge <= 0 {
		return math.NaN()
	}
	ra := radius / cellEdge
	return math.Pi*ra*ra + 4*ra + 1
}

// MaxDuplicationFactorModel returns the worst-case model value 3 + π/4,
// reached at α = 2r (Section 6.2).
func MaxDuplicationFactorModel() float64 { return 3 + math.Pi/4 }

// ReducerCostModel returns the df·α⁴ cost proxy of Section 6.3 for a grid
// over the unit square: the per-reducer work |Oi|·|Fi| is proportional to
// df·α⁴ when the datasets are fixed, so smaller cells mean cheaper
// reducers (at the price of more of them and more duplication in total).
func ReducerCostModel(cellEdge, radius float64) float64 {
	a := cellEdge
	return DuplicationFactorModel(a, radius) * a * a * a * a
}

// AreaBreakdown returns the areas |A1|..|A4| of Figure 3 for a square cell
// of edge a and radius r (assuming r <= a/2): A1 is the corner region
// needing 3 duplicates, A2 the two-border region needing 2, A3 the single-
// border region needing 1, and A4 the interior needing none.
func AreaBreakdown(a, r float64) (a1, a2, a3, a4 float64) {
	a1 = math.Pi * r * r
	a2 = (4 - math.Pi) * r * r
	a3 = 4 * (a - 2*r) * r
	a4 = (a - 2*r) * (a - 2*r)
	return a1, a2, a3, a4
}

// MeasureDuplication returns the empirical duplication factor for a set of
// feature locations: (primary assignments + duplicates) / primary
// assignments. It is used by the tests and the df experiment to validate
// DuplicationFactorModel.
func (g *Grid) MeasureDuplication(features []geo.Point, radius float64) float64 {
	if len(features) == 0 {
		return math.NaN()
	}
	total := len(features)
	var scratch []CellID
	for _, f := range features {
		scratch = g.DuplicationTargets(f, radius, scratch[:0])
		total += len(scratch)
	}
	return float64(total) / float64(len(features))
}
