package core

import (
	"fmt"
	"math"
	"sync"

	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// objGrid is a per-cell sub-grid bucket index over the data objects of one
// reduce group. The paper's reduce functions score every feature against
// every data object of the cell; with a few thousand objects per cell
// (clustered data) that inner loop dominates. The index lays a small
// uniform grid over the tight bounding box of the objects, and the cell
// stores its objects bucket by bucket (CSR layout, see viewCell.seal), so
// a feature only visits the buckets its radius can reach.
//
// The bucket filter is a bounding-square test: every object within
// distance r of the probe point is guaranteed to be in a visited bucket,
// but visited objects may still be farther than r — callers re-check the
// exact distance, so results are identical to the full scan.
type objGrid struct {
	minX, minY float64
	invW, invH float64 // buckets per unit length along x and y
	nx, ny     int
	start      []int32 // CSR offsets into the cell's columns, len nx*ny+1; empty when unindexed
}

// objGridMinObjs is the group size below which the plain scan is cheaper
// than building and probing the index.
const objGridMinObjs = 32

// targetBucketOccupancy is the average number of objects per bucket the
// index aims for: small enough that a probe touches few objects, large
// enough that the bucket directory stays tiny.
const targetBucketOccupancy = 8

// frame sizes the index for n objects at xs/ys: the tight bounding box and
// about targetBucketOccupancy objects per bucket. The coordinates are
// finite (every path into a reduce group or a view rejects others): one
// NaN in the box would make every probe miss every object of the cell.
func (b *objGrid) frame(xs, ys []float64) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i, x := range xs {
		y := ys[i]
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	side := int(math.Sqrt(float64(len(xs)) / targetBucketOccupancy))
	side = max(1, min(side, 256))
	*b = objGrid{minX: minX, minY: minY, nx: side, ny: side, start: b.start}
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
}

// bucketOf returns the row-major bucket of the point (x, y).
func (b *objGrid) bucketOf(x, y float64) int {
	col := clamp(int((x-b.minX)*b.invW), b.nx)
	row := clamp(int((y-b.minY)*b.invH), b.ny)
	return row*b.nx + col
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

// spans invokes fn with the column range [lo, hi) of every bucket row
// intersecting the axis-aligned square of half-edge r around p (a
// superset of the disk of radius r; exact distances are the caller's
// job). It returns the number of objects covered. Buckets of one row are
// contiguous in the cell, so each row's whole column range is one span.
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

// columns are data objects as what the reduce side reads of them: ids and
// coordinates, one dense slice each.
type columns struct {
	ids    []uint64
	xs, ys []float64
}

func (c *columns) add(id uint64, x, y float64) {
	c.ids = append(c.ids, id)
	c.xs = append(c.xs, x)
	c.ys = append(c.ys, y)
}

func (c *columns) reset() {
	c.ids, c.xs, c.ys = c.ids[:0], c.xs[:0], c.ys[:0]
}

// viewCell is the one layout of a reduce group's data objects: the
// columns in bucket order plus the bucket offsets, so every bucket of the
// index is a contiguous run that kernelHits scans with the batch-8
// kernel. A DataView holds one per grid cell, immutable and shared
// read-only by concurrent reduce tasks; a reduce group seals its
// in-stream data records into a private, pooled one (reduceScratch).
type viewCell struct {
	columns
	index objGrid
}

// seal lays the objects of in out as c, in bucket order, with the bucket
// index over them when the cell is large enough for one to pay off
// (objGridMinObjs). Objects keep their input order within a bucket.
// c's slices are reused when large enough; in must not alias them.
func (c *viewCell) seal(in columns) {
	n := len(in.ids)
	c.ids, c.xs, c.ys = resize(c.ids, n), resize(c.xs, n), resize(c.ys, n)
	b := &c.index
	if n < objGridMinObjs {
		b.start = b.start[:0]
		copy(c.ids, in.ids)
		copy(c.xs, in.xs)
		copy(c.ys, in.ys)
		return
	}
	b.frame(in.xs, in.ys)
	nb := b.nx * b.ny
	// Counting sort into CSR buckets: count, prefix-sum to each bucket's
	// first slot, place (advancing start[bk] to its bucket's end, the next
	// bucket's first slot), then shift the offsets back by one bucket.
	b.start = growZeroed(b.start, nb+1)
	for i := range in.xs {
		b.start[b.bucketOf(in.xs[i], in.ys[i])+1]++
	}
	for i := 1; i <= nb; i++ {
		b.start[i] += b.start[i-1]
	}
	for i := range in.xs {
		bk := b.bucketOf(in.xs[i], in.ys[i])
		j := b.start[bk]
		b.start[bk]++
		c.ids[j], c.xs[j], c.ys[j] = in.ids[i], in.xs[i], in.ys[i]
	}
	copy(b.start[1:], b.start[:nb])
	b.start[0] = 0
}

// kernelHits resolves the candidate spans of a probe and filters them by
// exact distance in one pass with the batch-8 kernel, setting hits/d2s to
// each in-range object's index and squared distance. It returns the
// number of bucket-square candidates visited, before the distance test:
// every object of an unindexed cell.
func (c *viewCell) kernelHits(p geo.Point, r, r2 float64, hits *[]int32, d2s *[]float64) int64 {
	h, d := (*hits)[:0], (*d2s)[:0]
	var n int64
	if len(c.index.start) == 0 {
		h, d = scanSpan(c.xs, c.ys, p.X, p.Y, r2, 0, h, d)
		n = int64(len(c.ids))
	} else {
		n = c.index.spans(p, r, func(lo, hi int32) {
			h, d = scanSpan(c.xs[lo:hi], c.ys[lo:hi], p.X, p.Y, r2, lo, h, d)
		})
	}
	*hits, *d2s = h, d
	return n
}

// item is object i of the cell as a result with the given score.
func (c *viewCell) item(i int32, score float64) ResultItem {
	return ResultItem{ID: c.ids[i], Loc: geo.Point{X: c.xs[i], Y: c.ys[i]}, Score: score}
}

// groupPart is one cell of a reduce group with the group-wide index of its
// first object: the per-object state of the group covers the view cell
// first, then the stream cell.
type groupPart struct {
	*viewCell
	base int32
}

// reduceScratch is the pooled per-group state of the reduce functions:
// the group's in-stream data records, their sealed cell, and the dense
// per-object bookkeeping slices (each reduce function uses the one
// matching its algorithm). A reduce task visits one group per grid cell —
// thousands on fine grids — and reusing the backing arrays across groups
// keeps the per-group constant cost out of the allocator.
type reduceScratch struct {
	// in holds the in-stream data records in arrival order — all of the
	// group's without a view, an uncompacted delta's beside one; stream is
	// them sealed, at the group's first feature that is scored. A group
	// whose features all fall below τ, or that has none, never seals.
	in     columns
	stream viewCell
	// parts are the group's non-empty cells: the view cell, then stream
	// once sealed.
	parts []groupPart
	// features is set at the group's first feature: the key order puts
	// every data record before it, so none may follow.
	features, sealed bool
	scores           []float64
	covered          []bool
	best             []nnState
	// hits/hitD2 are kernelHits' per-feature output: the indexes of the
	// objects within range and their squared distances.
	hits  []int32
	hitD2 []float64
}

var scratchPool = sync.Pool{New: func() any { return new(reduceScratch) }}

// getScratch returns a scratch for one group of cell, holding the cell's
// view cell when the view has data there. Return it with putScratch when
// the group is done.
func getScratch(view *DataView, cell grid.CellID) *reduceScratch {
	s := scratchPool.Get().(*reduceScratch)
	s.in.reset()
	s.features, s.sealed = false, false
	if view != nil {
		if vc := view.cell(cell); vc != nil {
			s.parts = append(s.parts, groupPart{viewCell: vc})
		}
	}
	return s
}

// putScratch returns a scratch to the pool, dropping its parts so a
// pooled scratch never pins a view the cache has let go.
func putScratch(s *reduceScratch) {
	clear(s.parts)
	s.parts = s.parts[:0]
	scratchPool.Put(s)
}

// add appends an in-stream data record to the group. Every data record of
// a group sorts before its first feature — pSPQ orders data 0 before
// features 1, eSPQlen data 0 before |f.W| ≥ 1, and eSPQsco data 2 above any
// Jaccard score under its descending order — so one that follows a
// feature comes from a corrupt shuffle run, and reads the same on every
// attempt.
func (s *reduceScratch) add(r Rec) error {
	if s.features {
		return mapreduce.Permanent(fmt.Errorf("core: data record %d follows a feature in its reduce group: the shuffle run is out of order", r.ID))
	}
	s.in.add(r.ID, r.Loc.X, r.Loc.Y)
	return nil
}

// seal lays the group's in-stream records out as its stream cell and
// returns the group's object count, view and stream together: the length
// of the per-object state.
func (s *reduceScratch) seal() int {
	s.sealed = true
	n := 0
	if len(s.parts) > 0 {
		n = len(s.parts[0].ids)
	}
	if len(s.in.ids) > 0 {
		s.stream.seal(s.in)
		s.parts = append(s.parts, groupPart{viewCell: &s.stream, base: int32(n)})
		n += len(s.in.ids)
	}
	return n
}

// resize returns s with length n, reusing its backing array when large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growZeroed returns s resized to n zero-valued elements, reusing the
// backing array when it is large enough.
func growZeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}
