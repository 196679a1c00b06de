package mapreduce

import "slices"

// sortPairs sorts pairs by the job's three-way key comparator. It goes
// through slices.SortFunc, whose generic instantiation compares and swaps
// concrete Pair values directly, rather than sort.Slice's reflection-based
// element swapping; the three-way form costs one comparator call per
// comparison instead of the two a Less-based sort needs to distinguish
// greater from equal.
//
// The sort is deliberately NOT stable: equal keys already arrive at a
// reduce task in nondeterministic relative order, because a partition
// k-way-merges chunks from concurrently running map tasks and the merge
// breaks key ties by chunk arrival. Correctness therefore cannot depend on
// equal-key order anywhere downstream — the reduce algorithms resolve
// score ties canonically by object id — and a stable sort would pay the
// symmerge pass for an ordering guarantee the system cannot observe.
func sortPairs[K, V any](pairs []Pair[K, V], cmp func(a, b K) int) {
	slices.SortFunc(pairs, func(a, b Pair[K, V]) int {
		return cmp(a.Key, b.Key)
	})
}

// mergeChunks returns the sorted stream over sorted chunks: the reduce
// input of a partition, and the order a worker writes a partition's run in.
func mergeChunks[K, V any](less func(a, b K) bool, chunks [][]Pair[K, V]) stream[K, V] {
	switch len(chunks) {
	case 0:
		return &memStream[K, V]{}
	case 1:
		return &memStream[K, V]{pairs: chunks[0]} // already sorted, skip the heap
	}
	return newChunkMerge(less, chunks)
}

// memStream yields pairs from an in-memory sorted slice.
type memStream[K, V any] struct {
	pairs []Pair[K, V]
	pos   int
}

func (s *memStream[K, V]) next() (Pair[K, V], bool, error) {
	if s.pos >= len(s.pairs) {
		var zero Pair[K, V]
		return zero, false, nil
	}
	p := s.pairs[s.pos]
	s.pos++
	return p, true, nil
}

// chunkMerge k-way-merges in-memory sorted chunks — the only reduce-side
// merge: every source is a slice. The heap is hand-rolled over the concrete
// item type (container/heap would box every popped item into an interface
// value and pay dynamic dispatch on every sift) and holds only (head key,
// chunk index) pairs, so sifting moves 16–24 bytes instead of whole records
// and the winning record is copied out exactly once.
type chunkMerge[K, V any] struct {
	chunks [][]Pair[K, V]
	pos    []int          // next unread index per chunk
	heads  []chunkHead[K] // min-heap on key
	less   func(a, b K) bool
}

type chunkHead[K any] struct {
	key K
	ci  int32
}

// newChunkMerge primes the heap with the first record of every non-empty
// chunk.
func newChunkMerge[K, V any](less func(a, b K) bool, chunks [][]Pair[K, V]) *chunkMerge[K, V] {
	m := &chunkMerge[K, V]{
		chunks: chunks,
		pos:    make([]int, len(chunks)),
		heads:  make([]chunkHead[K], 0, len(chunks)),
		less:   less,
	}
	for ci, ch := range chunks {
		if len(ch) > 0 {
			m.heads = append(m.heads, chunkHead[K]{key: ch[0].Key, ci: int32(ci)})
			m.pos[ci] = 1
		}
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.sift(i)
	}
	return m
}

// sift restores the min-heap property from index i.
func (m *chunkMerge[K, V]) sift(i int) {
	heads, less := m.heads, m.less
	n := len(heads)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && less(heads[r].key, heads[l].key) {
			least = r
		}
		if !less(heads[least].key, heads[i].key) {
			return
		}
		heads[i], heads[least] = heads[least], heads[i]
		i = least
	}
}

func (m *chunkMerge[K, V]) next() (Pair[K, V], bool, error) {
	if len(m.heads) == 0 {
		var zero Pair[K, V]
		return zero, false, nil
	}
	ci := m.heads[0].ci
	ch := m.chunks[ci]
	out := ch[m.pos[ci]-1]
	if p := m.pos[ci]; p < len(ch) {
		m.heads[0].key = ch[p].Key
		m.pos[ci] = p + 1
	} else {
		n := len(m.heads) - 1
		m.heads[0] = m.heads[n]
		m.heads = m.heads[:n]
		if n == 0 {
			return out, true, nil
		}
	}
	m.sift(0)
	return out, true, nil
}
