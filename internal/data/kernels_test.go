package data

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestHeaderKernels checks the fixed-width column readers and the bitmap
// popcount against one-value-at-a-time references, over every width and
// column lengths either side of sumFixed's 16-byte steps and of the 64
// steps after which it folds its lanes, with values up to each width's
// maximum.
func TestHeaderKernels(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for _, w := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 7, 15, 16, 17, 255, 1023, 1024, 1025, 2049, 3000} {
			col := make([]byte, n*w)
			var want uint64
			vals := make([]uint32, n)
			for i := range vals {
				v := r.Uint32() >> (32 - 8*w)
				if r.Intn(4) == 0 {
					v = 1<<(8*w) - 1 // the width's maximum
				}
				vals[i] = v
				want += uint64(v)
				for b := range w {
					col[i*w+b] = byte(v >> (8 * b))
				}
			}
			if got := sumFixed(col, w); got != want {
				t.Fatalf("w%d n%d: sumFixed = %d, want %d", w, n, got, want)
			}
			for i, v := range vals {
				if got, ok := fixedAt(col, w, uint64(i)); !ok || got != v {
					t.Fatalf("w%d n%d: fixedAt(%d) = %d, %v, want %d", w, n, i, got, ok, v)
				}
			}
			if _, ok := fixedAt(col, w, uint64(n)); ok {
				t.Fatalf("w%d n%d: fixedAt past the column succeeded", w, n)
			}
			ones := 0
			for _, c := range col {
				ones += bits.OnesCount8(c)
			}
			if got := popcount(col); got != ones {
				t.Fatalf("w%d n%d: popcount = %d, want %d", w, n, got, ones)
			}
		}
	}
}
