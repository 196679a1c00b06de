package core

import "math/bits"

// Vectorized scoring kernels for the reduce and map hot paths. Both loops
// here are written batch-8 and branch-free over dense columns so the
// compiler emits straight-line compare/select code: no per-element
// branches to mispredict, and no bounds checks inside the loops. The
// loops consume their slices eight elements at a time (x = x[8:]) with
// constant indexes into the head — the form the prove pass eliminates
// every check for. The CI pipeline builds this package with
// -gcflags=-d=ssa/check_bce and fails if a bounds check reappears in
// this file.

// b2u converts a comparison result to 0 or 1 without a branch (the
// compiler lowers it to SETcc/CSEL).
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// scanSpan appends the in-range hits of one contiguous coordinate span to
// hits/d2s: for every i with (xs[i]-fx)² + (ys[i]-fy)² within r2, it
// appends base+i and the squared distance. The filter keeps exactly the
// complement of the scalar rejection test d2 > r2, so NaN coordinates
// are kept, as that test keeps them. Eight distances are
// computed per iteration into a bitmask; only mask set-bits touch the
// output slices, so the common all-miss batch costs no stores.
func scanSpan(xs, ys []float64, fx, fy, r2 float64, base int32, hits []int32, d2s []float64) ([]int32, []float64) {
	i := base
	for len(xs) >= 8 && len(ys) >= 8 {
		dx0, dy0 := xs[0]-fx, ys[0]-fy
		dx1, dy1 := xs[1]-fx, ys[1]-fy
		dx2, dy2 := xs[2]-fx, ys[2]-fy
		dx3, dy3 := xs[3]-fx, ys[3]-fy
		dx4, dy4 := xs[4]-fx, ys[4]-fy
		dx5, dy5 := xs[5]-fx, ys[5]-fy
		dx6, dy6 := xs[6]-fx, ys[6]-fy
		dx7, dy7 := xs[7]-fx, ys[7]-fy
		xs, ys = xs[8:], ys[8:]
		d0 := dx0*dx0 + dy0*dy0
		d1 := dx1*dx1 + dy1*dy1
		d2 := dx2*dx2 + dy2*dy2
		d3 := dx3*dx3 + dy3*dy3
		d4 := dx4*dx4 + dy4*dy4
		d5 := dx5*dx5 + dy5*dy5
		d6 := dx6*dx6 + dy6*dy6
		d7 := dx7*dx7 + dy7*dy7
		m := b2u(!(d0 > r2)) |
			b2u(!(d1 > r2))<<1 |
			b2u(!(d2 > r2))<<2 |
			b2u(!(d3 > r2))<<3 |
			b2u(!(d4 > r2))<<4 |
			b2u(!(d5 > r2))<<5 |
			b2u(!(d6 > r2))<<6 |
			b2u(!(d7 > r2))<<7
		if m != 0 {
			d := [8]float64{d0, d1, d2, d3, d4, d5, d6, d7}
			for ; m != 0; m &= m - 1 {
				j := bits.TrailingZeros32(m)
				hits = append(hits, i+int32(j))
				d2s = append(d2s, d[j&7])
			}
		}
		i += 8
	}
	for len(xs) >= 1 && len(ys) >= 1 {
		dx, dy := xs[0]-fx, ys[0]-fy
		xs, ys = xs[1:], ys[1:]
		if d2 := dx*dx + dy*dy; !(d2 > r2) {
			hits = append(hits, i)
			d2s = append(d2s, d2)
		}
		i++
	}
	return hits, d2s
}

// denseIntersectCutoff bounds len(q)*len(f) for the exhaustive
// intersection kernel. Query keyword sets are a handful of ids and corpus
// features carry a few dozen, so nearly every Map-phase scoring call fits
// under it; past the cutoff the O(m·n) comparisons lose to the merge and
// galloping paths of text.KeywordSet.
const denseIntersectCutoff = 512

// intersectDense returns |q ∩ f| for two sorted duplicate-free keyword
// sets by comparing every pair. Quadratic, but branch-free: for the short
// sets of the scoring hot path the straight-line compare/add stream beats
// the data-dependent branching of a merge or binary search. f is walked
// batch-8 with q's ids reloaded per batch.
func intersectDense(q, f []uint32) int {
	var n uint32
	for len(f) >= 8 {
		f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
		f4, f5, f6, f7 := f[4], f[5], f[6], f[7]
		f = f[8:]
		for _, qv := range q {
			n += b2u(f0 == qv) + b2u(f1 == qv) + b2u(f2 == qv) + b2u(f3 == qv) +
				b2u(f4 == qv) + b2u(f5 == qv) + b2u(f6 == qv) + b2u(f7 == qv)
		}
	}
	for _, fv := range f {
		for _, qv := range q {
			n += b2u(fv == qv)
		}
	}
	return int(n)
}
