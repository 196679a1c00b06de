package core

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// The result must not depend on the arrival order of input records: the
// shuffle/sort fixes the processing order regardless of how HDFS happened
// to lay out the data ("no assumptions on the specific partitioning
// method", Section 3.1).
func TestInputOrderInvariance(t *testing.T) {
	objs, q := randomWorkload(77, 500, 25, 5)
	ref := NaiveCentralized(objs, q)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		shuffled := append(objs[:0:0], objs...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, alg := range Algorithms() {
			rep, err := Run(alg, mapreduce.NewMemorySource(shuffled, 1+trial), q, Options{
				Bounds: unitBounds, GridN: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameTopK(t, rep.Results, ref, objs, q)
		}
	}
}

// More map slots, more reduce slots, different split counts: pure
// parallelism knobs must never affect the result.
func TestParallelismInvariance(t *testing.T) {
	objs, q := randomWorkload(88, 600, 25, 5)
	ref := NaiveCentralized(objs, q)
	for _, slots := range []int{1, 2, 7, 16} {
		for _, splits := range []int{1, 3, 13} {
			rep, err := Run(ESPQSco, mapreduce.NewMemorySource(objs, splits), q, Options{
				Bounds:  unitBounds,
				GridN:   5,
				Cluster: mapreduce.NewCluster(nil, slots, slots),
			})
			if err != nil {
				t.Fatal(err)
			}
			assertSameTopK(t, rep.Results, ref, objs, q)
		}
	}
}

func TestCellKeyCodecRoundTrip(t *testing.T) {
	codec := CellKeyCodec()
	f := func(cell int32, order float64) bool {
		if math.IsNaN(order) {
			return true
		}
		k := CellKey{Cell: grid.CellID(cell), Order: order}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := codec.Encode(w, k); err != nil {
			return false
		}
		w.Flush()
		got, err := codec.Decode(bufio.NewReader(&buf))
		return err == nil && got == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellKeyComparators(t *testing.T) {
	a := CellKey{Cell: 1, Order: 0.5}
	b := CellKey{Cell: 1, Order: 0.7}
	c := CellKey{Cell: 2, Order: 0.1}
	if !CellKeyAscLess(a, b) || CellKeyAscLess(b, a) {
		t.Error("asc order within cell")
	}
	if !CellKeyDescLess(b, a) || CellKeyDescLess(a, b) {
		t.Error("desc order within cell")
	}
	// Cell id dominates under both comparators.
	if !CellKeyAscLess(b, c) || !CellKeyDescLess(b, c) {
		t.Error("cell id must dominate")
	}
	if !CellKeyGroup(a, b) || CellKeyGroup(a, c) {
		t.Error("grouping")
	}
	if CellKeyPartition(c, 2) != 0 {
		t.Errorf("partition = %d", CellKeyPartition(c, 2))
	}
	// The three-way comparators must agree with their Less forms on every
	// ordered pair — the Job contract when both are set.
	keys := []CellKey{a, b, c, {Cell: 1, Order: 0.5}}
	sign := func(less, greater bool) int {
		switch {
		case less:
			return -1
		case greater:
			return 1
		}
		return 0
	}
	for _, x := range keys {
		for _, y := range keys {
			if got, want := CellKeyAscCompare(x, y), sign(CellKeyAscLess(x, y), CellKeyAscLess(y, x)); got != want {
				t.Errorf("AscCompare(%v, %v) = %d, want %d", x, y, got, want)
			}
			if got, want := CellKeyDescCompare(x, y), sign(CellKeyDescLess(x, y), CellKeyDescLess(y, x)); got != want {
				t.Errorf("DescCompare(%v, %v) = %d, want %d", x, y, got, want)
			}
		}
	}
}

// Radius zero: only exactly co-located features count.
func TestZeroRadius(t *testing.T) {
	objs, q := randomWorkload(3, 200, 10, 3)
	q.Radius = 0
	want := NaiveCentralized(objs, q)
	for _, alg := range Algorithms() {
		rep, err := Run(alg, mapreduce.NewMemorySource(objs, 2), q, Options{
			Bounds: unitBounds, GridN: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTopK(t, rep.Results, want, objs, q)
	}
}

// Queries whose keywords match nothing return no results through every
// path.
func TestNoMatchingKeywords(t *testing.T) {
	objs, q := randomWorkload(9, 300, 10, 3)
	q.Keywords = q.Keywords[:0:0]
	q.Keywords = append(q.Keywords, 9999) // outside the workload vocabulary
	for _, alg := range Algorithms() {
		rep, err := Run(alg, mapreduce.NewMemorySource(objs, 2), q, Options{
			Bounds: unitBounds, GridN: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) != 0 {
			t.Errorf("%v returned %d results for unmatched keywords", alg, len(rep.Results))
		}
	}
	if got := NaiveCentralized(objs, q); len(got) != 0 {
		t.Errorf("naive returned %d", len(got))
	}
}
