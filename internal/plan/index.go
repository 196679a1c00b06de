package plan

import (
	"math"

	"spq/internal/data"
	"spq/internal/geo"
)

// unit is the planner's granule: one column block of a sealed or a delta
// cell. It carries the block's zone map — tight bounds, record count and,
// for a feature block, keyword summary — so the three pruning steps are
// the cell-level ones verbatim, with "cell" read as "block".
type unit struct {
	cell, block int32 // the cell's index in its layer, the block's in the cell
	bounds      geo.Rect
	zone        *data.BlockStats
}

// explode turns one category's cells into pruning units, one per block, in
// cell and block order. A cell without zone maps has no units, so it is
// never selected.
func explode(cells []data.ColSel) []unit {
	n := 0
	for _, sel := range cells {
		n += len(sel.Cell.Blocks)
	}
	out := make([]unit, 0, n)
	for i, sel := range cells {
		for b := range sel.Cell.Blocks {
			zone := &sel.Cell.Blocks[b]
			out = append(out, unit{cell: int32(i), block: int32(b), bounds: zone.Bounds, zone: zone})
		}
	}
	return out
}

// layer is one category — data or features — of one generation: its
// cells, each selecting every block, their units, and the units filed by
// bucket. Bucket b (row-major) holds units ids[start[b]:start[b+1]], so
// the buckets of one row between two columns are one contiguous run of
// ids.
type layer struct {
	cells []data.ColSel
	units []unit
	start []int32
	ids   []int32
}

// keptCells counts the cells with a surviving unit.
func (l *layer) keptCells(keep []bool) int {
	n, last := 0, int32(-1)
	for i, u := range l.units {
		if keep[i] && u.cell != last {
			n, last = n+1, u.cell
		}
	}
	return n
}

// regroup appends the layer's surviving cells to dst, in layer order: each
// one's selection narrowed to its ascending surviving block indices, cut
// from the tail of idx (which it returns extended), and the records of
// those blocks.
func (l *layer) regroup(keep []bool, dst []data.ColSel, idx []int) (out []data.ColSel, records int64, rest []int) {
	for i := 0; i < len(l.units); {
		from := len(idx)
		c := l.units[i].cell
		for ; i < len(l.units) && l.units[i].cell == c; i++ {
			if keep[i] {
				idx = append(idx, int(l.units[i].block))
				records += int64(l.units[i].zone.Records)
			}
		}
		if len(idx) > from {
			sel := l.cells[c]
			sel.Blocks = idx[from:len(idx):len(idx)]
			dst = append(dst, sel)
		}
	}
	return dst, records, idx
}

// index is the planner's view of one sealed generation: the base's units
// and their buckets, built once, on the manifest's first plan, and never
// changed — published manifests are immutable.
type index struct {
	grid           bucketGrid
	data, features layer
}

// indexOf returns the manifest's index, building it on first use. It is
// kept on the manifest itself, so it lives and dies with its generation.
func indexOf(m *data.Manifest) *index {
	return m.Derive(func(m *data.Manifest) any { return newIndex(m) }).(*index)
}

func newIndex(m *data.Manifest) *index {
	dc, fc := data.SelectAll(m.Data), data.SelectAll(m.Features)
	du, fu := explode(dc), explode(fc)
	g := newBucketGrid(du, fu)
	return &index{grid: g, data: g.fill(dc, du), features: g.fill(fc, fu)}
}

// maxFill bounds the bucket entries per unit, so that a manifest of huge
// or overlapping blocks costs a constant factor of its units, never a
// function of the seal grid it claims.
const maxFill = 16

// bucketGrid is a uniform grid of buckets over the base units' bounding
// box. A unit is filed under every bucket its bounds overlap; a delta unit
// outside the box lands in the edge buckets.
type bucketGrid struct{ x, y axis }

// axis cuts one coordinate into n buckets of width w from origin.
type axis struct {
	origin, w float64
	n         int
}

func newAxis(lo, hi float64, n int) axis {
	w := hi/float64(n) - lo/float64(n) // cannot overflow, unlike hi-lo
	if n <= 1 || !(w > 0) || math.IsInf(w, 0) {
		return axis{w: 1, n: 1}
	}
	return axis{origin: lo, w: w, n: n}
}

// span maps the closed interval between a and b (in either order, as
// RectMinDist2 reads an inverted rectangle), widened by reach on both
// sides, to the buckets it overlaps. The mapping is monotone, and it is
// clamped in float64 before the conversion to int, so it cannot overflow
// however large the coordinates or the reach: two intervals within reach
// of each other map to overlapping bucket ranges. NaN widens to the whole
// axis.
func (ax axis) span(a, b, reach float64) (lo, hi int) {
	if b < a {
		a, b = b, a
	}
	top := float64(ax.n - 1)
	l := (a - reach - ax.origin) / ax.w
	u := (b + reach - ax.origin) / ax.w
	switch {
	case !(l >= 0):
		l = 0
	case l > top:
		l = top
	}
	switch {
	case !(u <= top):
		u = top
	case u < 0:
		u = 0
	}
	return int(l), int(u)
}

// newBucketGrid fits about √units buckets per side over the units'
// bounding box, coarser while that would file them under more than
// maxFill buckets each on average.
func newBucketGrid(sets ...[]unit) bucketGrid {
	n := 0
	lo := geo.Point{X: math.Inf(1), Y: math.Inf(1)}
	hi := geo.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, units := range sets {
		n += len(units)
		for _, u := range units {
			b := u.bounds
			lo = geo.Point{X: min(lo.X, b.MinX, b.MaxX), Y: min(lo.Y, b.MinY, b.MaxY)}
			hi = geo.Point{X: max(hi.X, b.MinX, b.MaxX), Y: max(hi.Y, b.MinY, b.MaxY)}
		}
	}
	for side := int(math.Ceil(math.Sqrt(float64(n)))); ; side /= 2 {
		g := bucketGrid{x: newAxis(lo.X, hi.X, side), y: newAxis(lo.Y, hi.Y, side)}
		entries := 0
		for _, units := range sets {
			for _, u := range units {
				x0, x1, y0, y1 := g.spans(u.bounds, 0)
				entries += (x1 - x0 + 1) * (y1 - y0 + 1)
			}
		}
		if side <= 1 || entries <= maxFill*n {
			return g
		}
	}
}

func (g bucketGrid) spans(b geo.Rect, reach float64) (x0, x1, y0, y1 int) {
	x0, x1 = g.x.span(b.MinX, b.MaxX, reach)
	y0, y1 = g.y.span(b.MinY, b.MaxY, reach)
	return x0, x1, y0, y1
}

// fill files the units of cells under their buckets: once per generation
// for the base, per query for the delta. No units, no buckets.
func (g bucketGrid) fill(cells []data.ColSel, units []unit) layer {
	if len(units) == 0 {
		return layer{cells: cells}
	}
	l := layer{cells: cells, units: units, start: make([]int32, g.x.n*g.y.n+1)}
	each := func(visit func(b int32, i int)) {
		for i, u := range units {
			x0, x1, y0, y1 := g.spans(u.bounds, 0)
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					visit(int32(y*g.x.n+x), i)
				}
			}
		}
	}
	each(func(b int32, _ int) { l.start[b+1]++ })
	for b := 1; b < len(l.start); b++ {
		l.start[b] += l.start[b-1]
	}
	l.ids = make([]int32, l.start[len(l.start)-1])
	next := append([]int32(nil), l.start[:len(l.start)-1]...)
	each(func(b int32, i int) {
		l.ids[next[b]] = int32(i)
		next[b]++
	})
	return l
}

// reachOf bounds, with a margin, how far apart on one axis two rectangles
// can lie and still pass RectMinDist2 <= r2. A computed gap d passes only
// if its rounded square does, so d <= √r2 (IEEE rounding keeps √fl(d²) =
// d) or d² underflows to 0, below about 1e-162: the absolute term. The
// relative term absorbs the rounding of the gap itself and of edge ±
// reach − origin in the bucket mapping. At r2 = +Inf the reach is
// infinite and spans every bucket.
func reachOf(r2 float64) float64 { return math.Sqrt(r2)*(1+1e-9) + 1e-150 }

// near reports whether a kept unit of the layers lies within r of b. The
// exact test RectMinDist2 <= r2 decides, as in a scan over every unit; the
// buckets only skip units farther than reach on some axis, which cannot
// pass it.
func (g bucketGrid) near(b geo.Rect, reach, r2 float64, layers []*layer, keep [][]bool) bool {
	x0, x1, y0, y1 := g.spans(b, reach)
	for li, l := range layers {
		if len(l.units) == 0 {
			continue
		}
		k := keep[li]
		for y := y0; y <= y1; y++ {
			row := y * g.x.n
			for _, id := range l.ids[l.start[row+x0]:l.start[row+x1+1]] {
				if k[id] && geo.RectMinDist2(b, l.units[id].bounds) <= r2 {
					return true
				}
			}
		}
	}
	return false
}
