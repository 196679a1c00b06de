package mapreduce

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// shuffleKey is a composite key with a unique secondary component, so the
// fully sorted record order — and therefore the reduce output — is
// deterministic regardless of how map tasks chunk and publish it.
type shuffleKey struct {
	Group int32
	Seq   int32
}

func shuffleKeyLess(a, b shuffleKey) bool {
	if a.Group != b.Group {
		return a.Group < b.Group
	}
	return a.Seq < b.Seq
}

func shuffleJob(recs []int32, groups, reducers int) *Job[int32, shuffleKey, int32, string] {
	return &Job[int32, shuffleKey, int32, string]{
		Name:        "shuffle-equivalence",
		Source:      NewMemorySource(recs, 7),
		NumReducers: reducers,
		Map: func(ctx *TaskContext, rec int32, emit func(shuffleKey, int32)) error {
			emit(shuffleKey{Group: rec % int32(groups), Seq: rec}, rec*3)
			return nil
		},
		Partition:  func(k shuffleKey, r int) int { return int(k.Group) % r },
		Less:       shuffleKeyLess,
		GroupEqual: func(a, b shuffleKey) bool { return a.Group == b.Group },
		Reduce: func(ctx *TaskContext, values *Values[shuffleKey, int32], emit func(string)) error {
			out := fmt.Sprintf("g%d:", values.GroupKey().Group)
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				out += fmt.Sprintf("%d,", v)
			}
			emit(out)
			return nil
		},
	}
}

// TestShuffleEquivalence is the shuffle-architecture property test: the
// map-side sorted-chunk publish path and the per-reduce k-way merge must
// produce identical job output for every map-slot count, because the merged
// stream each reduce task sees is the same fully sorted sequence however it
// was chunked.
func TestShuffleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	recs := make([]int32, 3000)
	for i := range recs {
		recs[i] = int32(rng.Intn(1 << 20))
	}

	var want []string
	for _, mapSlots := range []int{1, 4} {
		c := NewCluster(nil, mapSlots, 3)
		res, err := Run(c, shuffleJob(recs, 17, 5))
		if err != nil {
			t.Fatalf("maps=%d: %v", mapSlots, err)
		}
		// Reduce-task output order is fixed (task order), so the
		// concatenated output must match byte for byte.
		if want == nil {
			want = res.Output
			continue
		}
		if !reflect.DeepEqual(res.Output, want) {
			t.Errorf("maps=%d: output diverged\n got: %v\nwant: %v", mapSlots, res.Output, want)
		}
	}
}

// TestMapSideSortPublishesSortedChunks pins the publish path: with several
// map tasks, partitions receive multiple independently sorted chunks
// (counted by shuffle.chunks), and the merged
// stream the reducers consume is still globally sorted — which the
// deterministic reduce output of TestShuffleEquivalence verifies, and the
// chunk counter makes observable here.
func TestMapSideSortPublishesSortedChunks(t *testing.T) {
	recs := make([]int32, 500)
	for i := range recs {
		recs[i] = int32((i * 7919) % 1000)
	}
	c := NewCluster(nil, 4, 2)
	res, err := Run(c, shuffleJob(recs, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Counters[CounterShuffleChunks]; got < 2 {
		t.Errorf("shuffle.chunks = %d, want >= 2 (one sorted chunk per map task and partition)", got)
	}
	// Each reduce group's payload must come out in key order: values were
	// emitted as rec*3 and keys sort by Seq=rec, so the per-group value
	// list must be ascending.
	for _, out := range res.Output {
		var group int32
		var vals []int
		var v int
		rest := out
		if _, err := fmt.Sscanf(rest, "g%d:", &group); err != nil {
			t.Fatalf("bad output %q", out)
		}
		for i := indexByte(rest, ':') + 1; i < len(rest); {
			n, err := fmt.Sscanf(rest[i:], "%d,", &v)
			if n != 1 || err != nil {
				break
			}
			vals = append(vals, v)
			i += indexByte(rest[i:], ',') + 1
		}
		if !sort.IntsAreSorted(vals) {
			t.Errorf("group %d values not in key order: %v", group, vals)
		}
	}
}

// TestSkewedPartitionSealsChunks pins the fixed-capacity chunk publish
// path: when one partition receives far more than the per-partition
// estimate (records/reducers), the map task seals and publishes multiple
// sorted chunks for it instead of growing one flat buffer — and the
// merged reduce output is still the fully sorted record sequence.
func TestSkewedPartitionSealsChunks(t *testing.T) {
	recs := make([]int32, 4000)
	for i := range recs {
		recs[i] = int32((i * 31) % (1 << 16))
	}
	job := shuffleJob(recs, 1, 4) // one group: every record hits partition 0
	c := NewCluster(nil, 1, 2)
	res, err := Run(c, job)
	if err != nil {
		t.Fatal(err)
	}
	// One map task, 4000 records into one partition, chunkCap = 4000/4+1:
	// at least 3 full chunks plus the remainder.
	if got := res.Counters[CounterShuffleChunks]; got < 4 {
		t.Errorf("shuffle.chunks = %d, want >= 4 (sealed chunks from one skewed task)", got)
	}
	if len(res.Output) != 1 {
		t.Fatalf("output groups = %d, want 1", len(res.Output))
	}
	var vals []int
	rest := res.Output[0]
	for i := indexByte(rest, ':') + 1; i < len(rest); {
		var v int
		if n, err := fmt.Sscanf(rest[i:], "%d,", &v); n != 1 || err != nil {
			break
		}
		vals = append(vals, v)
		i += indexByte(rest[i:], ',') + 1
	}
	if len(vals) != len(recs) {
		t.Fatalf("reduce saw %d values, want %d", len(vals), len(recs))
	}
	if !sort.IntsAreSorted(vals) {
		t.Error("merged values not in key order across sealed chunks")
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return len(s)
}

// BenchmarkShuffle exercises the sort-shuffle-merge pipeline end to end:
// an identity map over random composite keys, grouped reduce that drains
// every value. The slots sub-benchmarks expose the parallel speedup of
// the map-side sort.
func BenchmarkShuffle(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]int32, 200000)
	for i := range recs {
		recs[i] = int32(rng.Intn(1 << 28))
	}
	for _, slots := range []int{1, 4} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			c := NewCluster(nil, slots, slots)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(c, shuffleJob(recs, 64, 16)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMapBodyAllocsBoundedByChunks pins the shared map body's allocation
// budget over a counted split: the two per-partition tables, the chunk
// buffers and the chunk lists — a few per partition, however many records
// flow through. A per-record allocation (a grown buffer, a boxed pair, a
// closure built inside the loop) multiplies the count by thousands. It
// also bounds the bytes: a partition's chunks double from firstChunkCap,
// so their capacity is at most twice the pairs the split emitted plus
// firstChunkCap per partition, also when the map keeps only a few of its
// records.
func TestMapBodyAllocsBoundedByChunks(t *testing.T) {
	const reducers = 16
	job := shuffleJob(nil, 64, reducers)
	ctx := newTaskContext(MapTask, 0, 1, "test", NewCounters())
	splitOf := func(n int) memorySplit[int32] {
		rng := rand.New(rand.NewSource(5))
		split := make(memorySplit[int32], n)
		for i := range split {
			split[i] = int32(rng.Intn(1 << 28))
		}
		return split
	}
	allocs := func(n int) float64 {
		split := splitOf(n)
		return testing.AllocsPerRun(5, func() {
			chunks, err := mapBody(job, split, reducers, ctx, neverStop)
			if err != nil || len(chunks) != reducers {
				t.Fatalf("mapBody: %d partitions, err %v", len(chunks), err)
			}
		})
	}
	// Per partition, on this near-uniform input: chunks double from
	// firstChunkCap to chunkCap = n/reducers+1, so its n/reducers pairs fill
	// c = log2(chunkCap/firstChunkCap)+1 buffers at most, and the chunk
	// list grows log2(c)+1 times to hold them. Measured: 76 at 2,000
	// records, 176 at 64,000.
	for _, n := range []int{2000, 64000} {
		c := bits.Len(uint((n/reducers+1)/firstChunkCap)) + 1
		budget := reducers*(c+bits.Len(uint(c-1))+1) + 24
		if got := allocs(n); got > float64(budget) {
			t.Errorf("%d records: %.0f allocations per attempt, budget %d", n, got, budget)
		}
	}

	sparse := *job
	sparse.Map = func(ctx *TaskContext, rec int32, emit func(shuffleKey, int32)) error {
		if rec%100 == 0 {
			return job.Map(ctx, rec, emit)
		}
		return nil
	}
	for _, j := range []*Job[int32, shuffleKey, int32, string]{job, &sparse} {
		for _, n := range []int{2000, 64000} {
			chunks, err := mapBody(j, splitOf(n), reducers, ctx, neverStop)
			if err != nil {
				t.Fatal(err)
			}
			pairs, held := 0, 0
			for _, cs := range chunks {
				for _, c := range cs {
					pairs += len(c)
					held += cap(c)
				}
			}
			if bound := 2*pairs + firstChunkCap*reducers; held > bound {
				t.Errorf("%d records, %d pairs emitted: chunks hold %d pairs of capacity, bound %d", n, pairs, held, bound)
			}
		}
	}
}
