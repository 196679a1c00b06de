package mapreduce

import "sync/atomic"

// Values iterates the records of one reduce group in comparator order. It
// mirrors the Iterable<VALUE> a Hadoop reducer receives: the consumer pulls
// records one at a time and may simply stop pulling to terminate early
// (Section 5 of the paper relies on this to stop after examining only a
// few feature objects).
//
// The iterator also exposes the full composite key of the current record,
// because with secondary sort the non-grouping half of the key changes
// from record to record and carries information (keyword-list length for
// eSPQlen, Jaccard score for eSPQsco).
type Values[K, V any] struct {
	stream   stream[K, V]
	group    groupFunc[K]
	consumed *int64 // cached reduce.values.consumed counter cell

	cur      Pair[K, V]
	groupKey K
	hasCur   bool
	started  bool // whether the group's first record was handed out
	done     bool // group exhausted
	err      error
}

type groupFunc[K any] func(a, b K) bool

// stream yields sorted pairs one at a time. ok is false at end of data.
type stream[K, V any] interface {
	next() (p Pair[K, V], ok bool, err error)
}

// GroupKey returns the composite key of the first record of the group
// being reduced. It is stable for the whole Reduce invocation and is the
// analogue of the key argument of a Hadoop reducer.
func (v *Values[K, V]) GroupKey() K { return v.groupKey }

// Key returns the composite key of the record most recently returned by
// Next. With secondary sort the non-grouping half differs from record to
// record. It is only valid after a successful Next call; after Next has
// reported the end of the group it may already refer to the next group.
func (v *Values[K, V]) Key() K { return v.cur.Key }

// Next returns the next value of the current group. ok is false when the
// group is exhausted.
func (v *Values[K, V]) Next() (val V, ok bool) {
	if v.done || v.err != nil {
		var zero V
		return zero, false
	}
	if v.hasCur && !v.started {
		// First record of the group was pre-fetched by the engine.
		v.started = true
		atomic.AddInt64(v.consumed, 1)
		return v.cur.Value, true
	}
	prev := v.cur
	p, ok2, err := v.stream.next()
	if err != nil {
		v.err = err
		var zero V
		return zero, false
	}
	if !ok2 {
		v.hasCur = false
		v.done = true
		var zero V
		return zero, false
	}
	if !v.group(prev.Key, p.Key) {
		// First record of the next group: stash it for the engine.
		v.cur = p
		v.started = false
		v.done = true
		return val, false
	}
	v.cur = p
	atomic.AddInt64(v.consumed, 1)
	return p.Value, true
}

// drain advances past any records of the current group the reducer did not
// consume, leaving the iterator positioned at the first record of the next
// group (or at end of data). It returns whether another group exists.
func (v *Values[K, V]) drain() (more bool, err error) {
	if v.err != nil {
		return false, v.err
	}
	if v.done {
		// Either end of data (hasCur == false) or the next group's head is
		// already stashed in cur.
		v.done = false
		if v.hasCur {
			v.groupKey = v.cur.Key
		}
		return v.hasCur, nil
	}
	prev := v.cur
	for {
		p, ok, err := v.stream.next()
		if err != nil {
			v.err = err
			return false, err
		}
		if !ok {
			v.hasCur = false
			return false, nil
		}
		if !v.group(prev.Key, p.Key) {
			v.cur = p
			v.groupKey = p.Key
			v.hasCur = true
			v.started = false
			return true, nil
		}
		prev = p
	}
}

// ReduceSorted runs one reduce-task attempt of job over an already-sorted
// pair slice — every group through Reduce, then Cleanup — and returns its
// output. It exists so reduce implementations can be unit-tested and
// benchmarked against in-memory data without running a full job; the
// engine drives its attempts internally.
func ReduceSorted[I, K, V, O any](job *Job[I, K, V, O], pairs []Pair[K, V]) ([]O, error) {
	local := NewCounters()
	return reduceStream(job, &memStream[K, V]{pairs: pairs}, local, newTaskContext(ReduceTask, 0, 1, "test", local))
}

// prime loads the first record of the partition. It returns whether any
// record exists.
func (v *Values[K, V]) prime() (bool, error) {
	p, ok, err := v.stream.next()
	if err != nil {
		v.err = err
		return false, err
	}
	if !ok {
		return false, nil
	}
	v.cur = p
	v.groupKey = p.Key
	v.hasCur = true
	v.started = false
	return true, nil
}
