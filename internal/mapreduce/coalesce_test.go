package mapreduce

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// listSplit is a memory split, for Coalesce tests.
type listSplit struct{ recs []int }

func (s listSplit) Each(yield func(int) bool) error {
	for _, r := range s.recs {
		if !yield(r) {
			return nil
		}
	}
	return nil
}

type listSource []listSplit

func (h listSource) Splits() ([]SourceSplit[int], error) {
	out := make([]SourceSplit[int], len(h))
	for i, s := range h {
		out[i] = s
	}
	return out, nil
}

func TestCoalesceGroupsSplits(t *testing.T) {
	var src listSource
	var want []int
	for i := 0; i < 10; i++ {
		src = append(src, listSplit{recs: []int{2 * i, 2*i + 1}})
		want = append(want, 2*i, 2*i+1)
	}
	splits, err := Coalesce[int](src, 3).Splits()
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) > 3 {
		t.Fatalf("coalesced to %d splits, want <= 3", len(splits))
	}
	var got []int
	for _, s := range splits {
		if err := s.Each(func(r int) bool { got = append(got, r); return true }); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records = %v, want %v (order preserved, nothing lost)", got, want)
	}

	// Early stop must not spill into the group's later members.
	var first []int
	if err := splits[0].Each(func(r int) bool { first = append(first, r); return len(first) < 3 }); err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Errorf("early stop yielded %d records, want 3", len(first))
	}

	// Fewer splits than the target pass through untouched.
	passthrough, err := Coalesce[int](src, 100).Splits()
	if err != nil {
		t.Fatal(err)
	}
	if len(passthrough) != len(src) {
		t.Errorf("passthrough = %d splits, want %d", len(passthrough), len(src))
	}
}

// batchedSplit is a listSplit that also offers its records as one batch.
type batchedSplit struct{ listSplit }

func (s batchedSplit) EachBatch(yield func(batch any) bool) error {
	yield(s.recs)
	return nil
}

// TestMapBatchThroughCoalesce: a job that maps batches is fed the batches
// of the splits that offer them — found inside Coalesce's groups and
// beside plain splits — and the records of the splits that do not; a job
// without MapBatch reads every split record by record. Both see every
// record once and count it in map.records.in.
func TestMapBatchThroughCoalesce(t *testing.T) {
	var splits splitList[int]
	want := 0
	for i := 0; i < 6; i++ {
		splits = append(splits,
			batchedSplit{listSplit{recs: []int{4 * i, 4*i + 1}}},
			listSplit{recs: []int{4*i + 2, 4*i + 3}})
		want += 16*i + 6
	}
	// Two groups of mixed members, then plain and batched splits alone.
	grouped, err := Coalesce[int](splits[:8], 2).Splits()
	if err != nil {
		t.Fatal(err)
	}
	src := append(splitList[int](grouped), splits[8:]...)
	for _, withBatch := range []bool{true, false} {
		var viaBatch, viaRecord atomic.Int64
		job := &Job[int, int, int, int]{
			Name:   "batch",
			Source: src,
			Map: func(_ *TaskContext, r int, emit func(int, int)) error {
				viaRecord.Add(1)
				emit(0, r)
				return nil
			},
			NumReducers: 1,
			Partition:   func(int, int) int { return 0 },
			Less:        func(a, b int) bool { return a < b },
			GroupEqual:  func(a, b int) bool { return a == b },
			Reduce: func(_ *TaskContext, vs *Values[int, int], emit func(int)) error {
				sum := 0
				for v, ok := vs.Next(); ok; v, ok = vs.Next() {
					sum += v
				}
				emit(sum)
				return nil
			},
		}
		if withBatch {
			job.MapBatch = func(_ *TaskContext, batch any, emit func(int, int)) (int, error) {
				recs := batch.([]int)
				viaBatch.Add(int64(len(recs)))
				for _, r := range recs {
					emit(0, r)
				}
				return len(recs), nil
			}
		}
		res, err := Run(NewCluster(nil, 2, 1), job)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Output) != 1 || res.Output[0] != want {
			t.Errorf("batch=%v: output %v, want [%d]", withBatch, res.Output, want)
		}
		if got := res.Counters[CounterMapRecordsIn]; got != 24 {
			t.Errorf("batch=%v: map.records.in = %d, want 24", withBatch, got)
		}
		wantBatch, wantRecord := int64(0), int64(24)
		if withBatch {
			wantBatch, wantRecord = 12, 12
		}
		if viaBatch.Load() != wantBatch || viaRecord.Load() != wantRecord {
			t.Errorf("batch=%v: %d records mapped as batches and %d one at a time, want %d and %d",
				withBatch, viaBatch.Load(), viaRecord.Load(), wantBatch, wantRecord)
		}
	}
}

// splitList is a source over a fixed split list.
type splitList[I any] []SourceSplit[I]

func (s splitList[I]) Splits() ([]SourceSplit[I], error) { return s, nil }
