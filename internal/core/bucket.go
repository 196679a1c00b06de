package core

import (
	"math"
	"sync"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
)

// objGrid is a per-cell sub-grid bucket index over the data objects of one
// reduce group. The paper's reduce functions score every feature against
// every data object of the cell; with a few thousand objects per cell
// (clustered data) that inner loop dominates. The index lays a small
// uniform grid over the tight bounding box of the objects and stores the
// object indices bucket by bucket (CSR layout), so a feature only visits
// the buckets its radius can reach.
//
// The bucket filter is a bounding-square test: every object within
// distance r of the probe point is guaranteed to be in a visited bucket,
// but visited objects may still be farther than r — callers re-check the
// exact distance, so results are identical to the full scan.
type objGrid struct {
	minX, minY float64
	invW, invH float64 // buckets per unit length along x and y
	nx, ny     int
	start      []int32 // CSR offsets, len nx*ny+1
	idx        []int32 // object indices grouped by bucket (row-major)
}

// objGridMinObjs is the group size below which the plain scan is cheaper
// than building and probing the index.
const objGridMinObjs = 32

// targetBucketOccupancy is the average number of objects per bucket the
// index aims for: small enough that a probe touches few objects, large
// enough that the bucket directory stays tiny.
const targetBucketOccupancy = 8

// buildObjGrid indexes objs, or returns nil when the group is too small
// for the index to pay off.
func buildObjGrid(objs []data.Object) *objGrid {
	n := len(objs)
	if n < objGridMinObjs {
		return nil
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range objs {
		p := objs[i].Loc
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	side := int(math.Sqrt(float64(n) / targetBucketOccupancy))
	if side < 1 {
		side = 1
	}
	if side > 256 {
		side = 256
	}
	b := &objGrid{minX: minX, minY: minY, nx: side, ny: side}
	if w := maxX - minX; w > 0 {
		b.invW = float64(b.nx) / w
	} else {
		b.nx = 1
	}
	if h := maxY - minY; h > 0 {
		b.invH = float64(b.ny) / h
	} else {
		b.ny = 1
	}
	bucketOf := func(p geo.Point) int {
		col := clamp(int((p.X-b.minX)*b.invW), b.nx)
		row := clamp(int((p.Y-b.minY)*b.invH), b.ny)
		return row*b.nx + col
	}
	// Counting sort of object indices into CSR buckets.
	b.start = make([]int32, b.nx*b.ny+1)
	for i := range objs {
		b.start[bucketOf(objs[i].Loc)+1]++
	}
	for i := 1; i < len(b.start); i++ {
		b.start[i] += b.start[i-1]
	}
	b.idx = make([]int32, n)
	fill := make([]int32, b.nx*b.ny)
	copy(fill, b.start[:len(b.start)-1])
	for i := range objs {
		bk := bucketOf(objs[i].Loc)
		b.idx[fill[bk]] = int32(i)
		fill[bk]++
	}
	return b
}

// clamp limits i to [0, n-1].
func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// floorIdx converts a fractional bucket coordinate to an index, saturating
// into [-1, n] so that out-of-range (or overflowed) floats never produce a
// wild integer conversion.
func floorIdx(f float64, n int) int {
	if !(f >= 0) { // catches negatives and NaN
		return -1
	}
	if f >= float64(n) {
		return n
	}
	return int(f)
}

// spans invokes fn with the idx range [lo, hi) of every bucket row
// intersecting the axis-aligned square of half-edge r around p (a
// superset of the disk of radius r; exact distances are the caller's
// job). It returns the number of index slots covered. Buckets of one row
// are contiguous in idx, so each row's whole column range is one span.
func (b *objGrid) spans(p geo.Point, r float64, fn func(lo, hi int32)) int64 {
	lox := floorIdx((p.X-r-b.minX)*b.invW, b.nx)
	hix := floorIdx((p.X+r-b.minX)*b.invW, b.nx)
	loy := floorIdx((p.Y-r-b.minY)*b.invH, b.ny)
	hiy := floorIdx((p.Y+r-b.minY)*b.invH, b.ny)
	if hix < 0 || hiy < 0 || lox >= b.nx || loy >= b.ny {
		return 0
	}
	lox, hix = clamp(lox, b.nx), clamp(hix, b.nx)
	loy, hiy = clamp(loy, b.ny), clamp(hiy, b.ny)
	var n int64
	for row := loy; row <= hiy; row++ {
		base := row * b.nx
		lo, hi := b.start[base+lox], b.start[base+hix+1]
		n += int64(hi - lo)
		fn(lo, hi)
	}
	return n
}

// each invokes fn for every object index in a bucket intersecting the
// probe square (see spans) and returns the number of objects visited.
func (b *objGrid) each(p geo.Point, r float64, fn func(i int32)) int64 {
	return b.spans(p, r, func(lo, hi int32) {
		for _, i := range b.idx[lo:hi] {
			fn(i)
		}
	})
}

// groupObjs holds the data objects of one reduce group in two parts that
// share one index space, view objects first: object i is view.objs[i] for
// i < base(), objs[i-base()] after.
//
//   - view is the group's DataView cell, nil without a view: shared,
//     immutable, scored with the scanSpan kernel over its dense columns
//     (viewCell.kernelHits). A group never writes it.
//   - objs are the data objects that arrived in-stream — all of them
//     without a view, an uncompacted delta's beside one — private to the
//     group, scored through candidates and a bucket index lazily
//     (re)built over them. Data objects normally all precede the first
//     feature in comparator order, so the index is built exactly once per
//     group; the rebuild-on-growth check keeps the exotic interleaved case
//     (identical sort keys for data and features) correct.
type groupObjs struct {
	view    *viewCell
	objs    []data.Object
	index   *objGrid
	indexed int // len(objs) the index was last built over
}

func (g *groupObjs) add(o data.Object) { g.objs = append(g.objs, o) }

// base is the index of the first in-stream object: the view cell's size.
func (g *groupObjs) base() int32 {
	if g.view == nil {
		return 0
	}
	return int32(len(g.view.objs))
}

// reduceScratch is the pooled per-group state of the reduce functions:
// the collected data objects with their bucket index and the dense
// per-object bookkeeping slices (each reduce function uses the one
// matching its algorithm). A reduce task visits one
// group per grid cell — thousands on fine grids — and reusing the backing
// arrays across groups keeps the per-group constant cost out of the
// allocator.
type reduceScratch struct {
	g       groupObjs
	scores  []float64
	covered []bool
	best    []nnState
	// hits/hitD2 are the kernel path's per-feature output: the indexes
	// of the objects within range and their squared distances.
	hits  []int32
	hitD2 []float64
}

var scratchPool = sync.Pool{New: func() any { return new(reduceScratch) }}

// getScratch returns a reset scratch. Return it with putScratch when the
// group is done.
func getScratch() *reduceScratch {
	s := scratchPool.Get().(*reduceScratch)
	s.g.objs = s.g.objs[:0]
	s.g.index = nil
	s.g.indexed = 0
	s.scores = s.scores[:0]
	s.covered = s.covered[:0]
	s.best = s.best[:0]
	return s
}

// seedView points the scratch at the group's DataView cell, as if the
// cell's data objects had just arrived in-stream: the view part of the
// group set, per-object bookkeeping slices zero-filled to match. Safe
// no-op when the view has no objects in the cell.
func (s *reduceScratch) seedView(view *DataView, cell grid.CellID) {
	vc := view.cell(cell)
	if vc == nil {
		return
	}
	s.g.view = vc
	n := len(vc.objs)
	s.scores = growZeroed(s.scores, n)
	s.covered = growZeroed(s.covered, n)
	s.best = growZeroed(s.best, n)
	for i := range s.best {
		s.best[i] = nnState{d2: math.Inf(1)}
	}
}

// growZeroed returns s resized to n zero-valued elements, reusing the
// backing array when it is large enough.
func growZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// putScratch returns a scratch to the pool, dropping its view cell so a
// pooled scratch never pins a view the cache has let go.
func putScratch(s *reduceScratch) {
	s.g.view = nil
	scratchPool.Put(s)
}

// candidates invokes fn(i) for every in-stream object that may lie within
// distance r of p — via the bucket index when it pays off, linearly
// otherwise — and returns the number of candidates visited. i indexes objs,
// so the group-wide index is base()+i. Candidates may still be farther
// than r; the caller checks exact distances.
func (g *groupObjs) candidates(p geo.Point, r float64, fn func(i int32)) int64 {
	if g.indexed != len(g.objs) {
		g.index = buildObjGrid(g.objs)
		g.indexed = len(g.objs)
	}
	if g.index == nil {
		for i := range g.objs {
			fn(int32(i))
		}
		return int64(len(g.objs))
	}
	return g.index.each(p, r, fn)
}

// kernelHits is the vectorized counterpart of candidates for a view cell:
// it resolves the candidate spans and filters them by exact distance in
// one pass with the batch-8 kernel, appending each in-range object's index
// and squared distance to hits/d2s. The visited count it returns matches
// candidates exactly — both count bucket-square candidates, before the
// distance test — so the score-computation counters stay comparable
// across paths.
func (vc *viewCell) kernelHits(p geo.Point, r, r2 float64, hits *[]int32, d2s *[]float64) int64 {
	h, d := (*hits)[:0], (*d2s)[:0]
	var n int64
	if vc.index == nil {
		h, d = scanSpan(vc.xs, vc.ys, p.X, p.Y, r2, 0, h, d)
		n = int64(len(vc.objs))
	} else {
		// View indexes are identity-permuted (BuildDataView), so a span
		// [lo, hi) is a contiguous run of the coordinate columns.
		n = vc.index.spans(p, r, func(lo, hi int32) {
			h, d = scanSpan(vc.xs[lo:hi], vc.ys[lo:hi], p.X, p.Y, r2, lo, h, d)
		})
	}
	*hits, *d2s = h, d
	return n
}
