package mapreduce

import (
	"fmt"
	"sync/atomic"
)

// This file holds the two task bodies every executor runs: the local
// executor's attempts (engine.go) and a worker's (remote.go) differ only in
// the glue around them — where the split comes from, where the sorted
// chunks go, and what the stop poll consults.

// defaultChunkCap is the largest map-side partition buffer when the
// split's record count is unknown; firstChunkCap is the smallest.
const (
	defaultChunkCap = 4096
	firstChunkCap   = 64
)

// cancelCheckEvery is the record granularity at which task bodies poll
// their stop function: coarse enough that the poll never shows up in
// profiles, fine enough that a canceled attempt stops within microseconds.
const cancelCheckEvery = 4096

// neverStop is the stop poll of a worker-side attempt: a worker runs every
// attempt it is sent to completion, and only the local executor polls the
// job's context.
func neverStop() error { return nil }

// mapBody runs the body of one map-task attempt: it feeds every record of
// the split through job.Map — or every batch through job.MapBatch, where
// the split offers batches and the job maps them — routes the emitted
// pairs to r partitions and returns each partition's records as sorted
// chunks. This is the parallel half of the map-side sort-and-merge
// shuffle: order is established where the data is produced, and the owning
// reduce task only merges.
//
// Everything returned is attempt-local, so a failed attempt leaves no
// trace. stop is polled every cancelCheckEvery records and before every
// batch; a non-nil return aborts the attempt with that error.
func mapBody[I, K, V, O any](job *Job[I, K, V, O], split SourceSplit[I], r int, ctx *TaskContext, stop func() error) ([][][]Pair[K, V], error) {
	cmp := job.compare()
	// Partition buffers are fixed-capacity chunks. A full chunk is sorted on
	// the spot and set aside, and a fresh buffer is allocated — growth
	// never copies. On skewed key distributions (clustered data) a single
	// partition can receive many times the per-partition estimate, and
	// doubling one flat buffer would spend the map phase in growslice.
	// A partition's first chunk holds firstChunkCap pairs and each next one
	// twice its predecessor, up to chunkCap — sized from the split's record
	// count when it is known. So a partition's chunks are sized by what the
	// split really emits to it (a block's survivors, not its records): they
	// hold at most twice its pairs plus firstChunkCap, in O(log(chunkCap/
	// firstChunkCap)) chunks below the cap.
	chunkCap := defaultChunkCap
	if cs, ok := split.(CountedSplit); ok {
		if n := cs.Records(); n > 0 {
			chunkCap = n/r + 1
		}
	}
	open := make([][]Pair[K, V], r)     // the chunk each partition is filling
	chunks := make([][][]Pair[K, V], r) // sorted chunks per partition

	// recIn/recOut are batched per attempt: one atomic flush instead of
	// one atomic add per record and per emission, which profiles as real
	// time at ~100k records per query.
	var recIn, recOut int64
	var emitErr error
	emit := func(k K, v V) {
		p := job.Partition(k, r)
		if p < 0 || p >= r {
			if emitErr == nil {
				// A broken partitioner fails identically on every attempt.
				emitErr = Permanent(fmt.Errorf("mapreduce: job %q: Partition returned %d for %d reducers", job.Name, p, r))
			}
			return
		}
		buf := open[p]
		if buf == nil {
			size := firstChunkCap
			if cs := chunks[p]; len(cs) > 0 {
				size = 2 * cap(cs[len(cs)-1])
			}
			buf = make([]Pair[K, V], 0, min(size, chunkCap))
		}
		buf = append(buf, Pair[K, V]{Key: k, Value: v})
		recOut++
		if len(buf) == cap(buf) {
			// Chunk full: sort it now, spreading the sort across the phase.
			sortPairs(buf, cmp)
			chunks[p] = append(chunks[p], buf)
			buf = nil
		}
		open[p] = buf
	}

	var mapErr error
	mapRecord := func(rec I) bool {
		recIn++
		if recIn%cancelCheckEvery == 0 {
			if mapErr = stop(); mapErr != nil {
				return false
			}
		}
		if mapErr = job.Map(ctx, rec, emit); mapErr != nil {
			return false
		}
		return emitErr == nil
	}
	// A batch is a few thousand records at most, so one poll per batch
	// keeps the per-record path's stop latency.
	mapBatch := func(batch any) bool {
		if mapErr = stop(); mapErr != nil {
			return false
		}
		var n int
		n, mapErr = job.MapBatch(ctx, batch, emit)
		recIn += int64(n)
		return mapErr == nil && emitErr == nil
	}
	eachErr := eachLeaf(split, func(leaf SourceSplit[I]) error {
		if mapErr != nil || emitErr != nil {
			return nil
		}
		if bs, ok := leaf.(BatchSplit); ok && job.MapBatch != nil {
			return bs.EachBatch(mapBatch)
		}
		return leaf.Each(mapRecord)
	})
	atomic.AddInt64(ctx.recIn, recIn)
	atomic.AddInt64(ctx.recOut, recOut)
	switch {
	case eachErr != nil:
		return nil, eachErr
	case mapErr != nil:
		return nil, mapErr
	case emitErr != nil:
		return nil, emitErr
	}
	for p, buf := range open {
		if len(buf) > 0 {
			sortPairs(buf, cmp)
			chunks[p] = append(chunks[p], buf)
		}
	}
	return chunks, nil
}

// reduceBody runs the body of one reduce-task attempt over the sorted
// chunks of its partition — the chunks map tasks published in-process, or
// the runs a worker decoded: merge them, poll stop every cancelCheckEvery
// records, and drive Reduce over the groups.
func reduceBody[I, K, V, O any](job *Job[I, K, V, O], chunks [][]Pair[K, V], local *Counters, ctx *TaskContext, stop func() error) ([]O, error) {
	var total int64
	for _, ch := range chunks {
		total += int64(len(ch))
	}
	local.Add(CounterReduceValues, total)
	return reduceStream(job, &pollStream[K, V]{stop: stop, inner: mergeChunks(job.Less, chunks)}, local, ctx)
}

// pollStream wraps a sorted record stream with a stop poll every
// cancelCheckEvery records, so a reduce attempt whose job was canceled
// stops mid-merge instead of finishing work whose output is discarded.
type pollStream[K, V any] struct {
	stop  func() error
	inner stream[K, V]
	n     int
}

func (s *pollStream[K, V]) next() (Pair[K, V], bool, error) {
	s.n++
	if s.n%cancelCheckEvery == 0 {
		if err := s.stop(); err != nil {
			var zero Pair[K, V]
			return zero, false, err
		}
	}
	return s.inner.next()
}

// reduceStream drives one reduce-task attempt over a merged sorted
// stream: the job's Reduce once per key group, then its Cleanup. The
// attempt's State starts and ends nil.
func reduceStream[I, K, V, O any](job *Job[I, K, V, O], merged stream[K, V], local *Counters, ctx *TaskContext) ([]O, error) {
	ctx.State = nil
	defer func() { ctx.State = nil }()
	group := job.GroupEqual
	if group == nil {
		group = func(a, b K) bool { return false }
	}
	vals := &Values[K, V]{stream: merged, group: group, consumed: ctx.consumed}

	var out []O
	emit := func(o O) {
		out = append(out, o)
		local.Add(CounterOutputRecords, 1)
	}

	more, err := vals.prime()
	if err != nil {
		return nil, err
	}
	for more {
		local.Add(CounterReduceGroups, 1)
		if rerr := job.Reduce(ctx, vals, emit); rerr != nil {
			return nil, rerr
		}
		if vals.err != nil {
			return nil, vals.err
		}
		more, err = vals.drain()
		if err != nil {
			return nil, err
		}
	}
	if job.Cleanup != nil {
		if err := job.Cleanup(ctx, emit); err != nil {
			return nil, err
		}
	}
	return out, nil
}
