package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"spq/internal/text"
)

// scanSpanRef is the scalar reference: the per-record rejection test
// !(d2 > r2) with d2 computed as geo.Dist2 does, including its NaN
// convention (only d2 > r2 rejects, so NaN distances pass).
func scanSpanRef(xs, ys []float64, fx, fy, r2 float64, base int32) ([]int32, []float64) {
	var hits []int32
	var d2s []float64
	for i := range xs {
		dx, dy := xs[i]-fx, ys[i]-fy
		if d2 := dx*dx + dy*dy; !(d2 > r2) {
			hits = append(hits, base+int32(i))
			d2s = append(d2s, d2)
		}
	}
	return hits, d2s
}

func sameHits(t *testing.T, label string, wantH []int32, wantD []float64, gotH []int32, gotD []float64) {
	t.Helper()
	if len(gotH) != len(wantH) || len(gotD) != len(wantD) {
		t.Fatalf("%s: got %d hits / %d d2s, want %d / %d", label, len(gotH), len(gotD), len(wantH), len(wantD))
	}
	for n := range wantH {
		if gotH[n] != wantH[n] {
			t.Fatalf("%s: hit %d = index %d, want %d", label, n, gotH[n], wantH[n])
		}
		// Bit-level equality: the kernel must compute the identical d2.
		if math.Float64bits(gotD[n]) != math.Float64bits(wantD[n]) {
			t.Fatalf("%s: hit %d d2 = %v, want %v", label, n, gotD[n], wantD[n])
		}
	}
}

// TestScanSpanTails drives the batch-8 kernel across every tail length
// (n%8 from 0 through a full extra batch) and checks hits, indexes and
// squared distances against the scalar reference.
func TestScanSpanTails(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 17; n++ {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
			ys[i] = rng.Float64()
		}
		fx, fy := 0.5, 0.5
		for _, r2 := range []float64{0, 0.01, 0.1, 1, math.MaxFloat64} {
			wantH, wantD := scanSpanRef(xs, ys, fx, fy, r2, 7)
			gotH, gotD := scanSpan(xs, ys, fx, fy, r2, 7, nil, nil)
			sameHits(t, "fresh", wantH, wantD, gotH, gotD)

			// Appending to non-empty slices must keep the prefix.
			preH := []int32{-1}
			preD := []float64{-1}
			gotH, gotD = scanSpan(xs, ys, fx, fy, r2, 7, preH, preD)
			if gotH[0] != -1 || gotD[0] != -1 {
				t.Fatal("kernel clobbered the existing prefix")
			}
			sameHits(t, "append", wantH, wantD, gotH[1:], gotD[1:])
		}
	}
}

// TestScanSpanEmpty: zero-length spans produce no hits and leave the
// output slices untouched.
func TestScanSpanEmpty(t *testing.T) {
	h, d := scanSpan(nil, nil, 0, 0, 1, 0, nil, nil)
	if len(h) != 0 || len(d) != 0 {
		t.Fatalf("empty span produced %d hits", len(h))
	}
	h, d = scanSpan([]float64{}, []float64{}, 0, 0, 1, 3, []int32{9}, []float64{9})
	if len(h) != 1 || h[0] != 9 || len(d) != 1 {
		t.Fatalf("empty span with prefix: %v %v", h, d)
	}
}

// TestScanSpanNaN: NaN coordinates yield NaN distances, and NaN fails
// the d2 > r2 rejection — so the record is kept, batch and tail alike,
// exactly as the scalar !(d2 > r2) reference keeps it. A kernel written
// with d2 <= r2 would silently drop these.
func TestScanSpanNaN(t *testing.T) {
	nan := math.NaN()
	for _, n := range []int{1, 3, 8, 11} {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = 10 // far outside r2: rejected unless NaN
			ys[i] = 10
		}
		xs[n-1] = nan
		if n >= 8 {
			xs[2] = nan // one inside the first full batch too
		}
		wantH, wantD := scanSpanRef(xs, ys, 0, 0, 1, 0)
		gotH, gotD := scanSpan(xs, ys, 0, 0, 1, 0, nil, nil)
		if len(wantH) == 0 {
			t.Fatal("reference dropped NaN records; test is vacuous")
		}
		sameHits(t, "nan", wantH, wantD, gotH, gotD)
	}
}

// TestIntersectDense checks the exhaustive intersection kernel against
// text.KeywordSet.IntersectionSize over random sorted duplicate-free
// sets, including empty sets and every tail length of the batch-8 loop.
func TestIntersectDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randSet := func(n int) []uint32 {
		seen := map[uint32]bool{}
		for len(seen) < n {
			seen[uint32(rng.Intn(40))] = true
		}
		out := make([]uint32, 0, n)
		for v := range seen {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for trial := 0; trial < 200; trial++ {
		q := randSet(rng.Intn(6))
		f := randSet(rng.Intn(20))
		want := text.KeywordSet(q).IntersectionSize(text.KeywordSet(f))
		if got := intersectDense(q, f); got != want {
			t.Fatalf("intersectDense(%v, %v) = %d, want %d", q, f, got, want)
		}
	}
	if got := intersectDense(nil, nil); got != 0 {
		t.Fatalf("empty ∩ empty = %d", got)
	}
}
