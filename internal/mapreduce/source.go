package mapreduce

import "fmt"

// Source provides input records, pre-divided into splits that map tasks
// process independently.
type Source[I any] interface {
	// Splits enumerates the input splits of the source.
	Splits() ([]SourceSplit[I], error)
}

// SourceSplit is one unit of map input.
type SourceSplit[I any] interface {
	// Each calls yield for every record of the split, stopping early if
	// yield returns false.
	Each(yield func(rec I) bool) error
}

// SizedSplit is optionally implemented by splits that know their payload
// size; Coalesce uses it to balance grouped splits by bytes rather than
// by count.
type SizedSplit interface {
	// Size returns the split's payload size in bytes.
	Size() int64
}

// CountedSplit is optionally implemented by splits that know how many
// records they will yield; the engine uses it to presize map-side
// partition buffers.
type CountedSplit interface {
	// Records returns the number of records the split yields.
	Records() int
}

// BatchSplit is optionally implemented by splits that hold their records
// in a batch form — a decoded column block — that a job can map whole,
// without materializing the records one at a time. A job that sets
// MapBatch is fed the batches of such a split instead of its records;
// every other split, and every other job, takes the per-record path. The
// batch type is a contract between the source and the job.
type BatchSplit interface {
	// EachBatch calls yield for every batch of the split, in record order,
	// stopping early if yield returns false.
	EachBatch(yield func(batch any) bool) error
}

// Coalesce wraps a source so that it yields at most target splits,
// grouping consecutive small splits into one map-task unit. Partitioned
// storage produces one file (hence at least one split) per seal-grid
// cell; without coalescing every query would schedule a map task per
// tiny cell file and per-task overhead would dominate. Groups are
// balanced by payload size when the splits report one (SizedSplit), so a
// few heavy cell files don't land in a single map task on skewed data.
func Coalesce[I any](src Source[I], target int) Source[I] {
	return &coalescedSource[I]{src: src, target: target}
}

type coalescedSource[I any] struct {
	src    Source[I]
	target int
}

// splitSize returns the split's payload size, or 1 (count weighting) when
// the split does not report one.
func splitSize[I any](s SourceSplit[I]) int64 {
	if sized, ok := s.(SizedSplit); ok {
		if n := sized.Size(); n > 0 {
			return n
		}
	}
	return 1
}

// Splits implements Source.
func (c *coalescedSource[I]) Splits() ([]SourceSplit[I], error) {
	splits, err := c.src.Splits()
	if err != nil {
		return nil, err
	}
	target := c.target
	if target < 1 {
		target = 1
	}
	if len(splits) <= target {
		return splits, nil
	}
	var total int64
	for _, s := range splits {
		total += splitSize(s)
	}
	// Greedily pack consecutive splits up to the per-group size budget,
	// never exceeding target groups: once only (target - groups) groups
	// remain for the rest, close the current one regardless of fill.
	budget := (total + int64(target) - 1) / int64(target)
	out := make([]SourceSplit[I], 0, target)
	lo, fill := 0, int64(0)
	for i, s := range splits {
		fill += splitSize(s)
		// Close the group once its budget is met — unless it is the last
		// allowed group, which absorbs everything remaining.
		if fill >= budget && len(out) < target-1 {
			out = append(out, groupedSplit[I](splits[lo:i+1]))
			lo, fill = i+1, 0
		}
	}
	if lo < len(splits) {
		out = append(out, groupedSplit[I](splits[lo:]))
	}
	return out, nil
}

// groupedSplit runs its member splits sequentially as one map input.
type groupedSplit[I any] []SourceSplit[I]

// Records implements CountedSplit when every member knows its count;
// otherwise it returns 0 (no estimate).
func (g groupedSplit[I]) Records() int {
	n := 0
	for _, s := range g {
		cs, ok := s.(CountedSplit)
		if !ok {
			return 0
		}
		n += cs.Records()
	}
	return n
}

// SplitRef implements RefSplit when every member does: the group ships as
// the ordered list of its members' references.
func (g groupedSplit[I]) SplitRef() (*SplitRef, error) {
	out := &SplitRef{Kind: "group", Group: make([]SplitRef, 0, len(g))}
	for _, s := range g {
		rs, ok := s.(RefSplit)
		if !ok {
			return nil, fmt.Errorf("mapreduce: grouped split member %T has no reference form", s)
		}
		ref, err := rs.SplitRef()
		if err != nil {
			return nil, err
		}
		out.Group = append(out.Group, *ref)
	}
	return out, nil
}

// OpenGroupSplit re-opens a "group" reference by opening every member
// through open and running them sequentially as one map input, exactly
// like the coalesced split it references.
func OpenGroupSplit[I any](ref *SplitRef, open func(ref *SplitRef) (SourceSplit[I], error)) (SourceSplit[I], error) {
	g := make(groupedSplit[I], 0, len(ref.Group))
	for i := range ref.Group {
		s, err := open(&ref.Group[i])
		if err != nil {
			return nil, err
		}
		g = append(g, s)
	}
	return g, nil
}

// eachLeaf calls fn for split, or — when split is a group — for every
// member in order, so a map task sees through Coalesce to the splits that
// may offer batches.
func eachLeaf[I any](split SourceSplit[I], fn func(SourceSplit[I]) error) error {
	g, ok := split.(groupedSplit[I])
	if !ok {
		return fn(split)
	}
	for _, s := range g {
		if err := eachLeaf(s, fn); err != nil {
			return err
		}
	}
	return nil
}

func (g groupedSplit[I]) Each(yield func(I) bool) error {
	for _, s := range g {
		stopped := false
		err := s.Each(func(rec I) bool {
			ok := yield(rec)
			if !ok {
				stopped = true
			}
			return ok
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// MemorySource serves records from in-memory slices, one split per slice.
// It is the lightweight source used by unit tests and by callers that
// already hold their data in memory.
type MemorySource[I any] struct {
	Chunks [][]I
}

// NewMemorySource splits recs into numSplits contiguous chunks.
func NewMemorySource[I any](recs []I, numSplits int) *MemorySource[I] {
	if numSplits <= 0 {
		numSplits = 1
	}
	if numSplits > len(recs) && len(recs) > 0 {
		numSplits = len(recs)
	}
	src := &MemorySource[I]{}
	if len(recs) == 0 {
		return src
	}
	chunk := (len(recs) + numSplits - 1) / numSplits
	for lo := 0; lo < len(recs); lo += chunk {
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		src.Chunks = append(src.Chunks, recs[lo:hi])
	}
	return src
}

// Splits implements Source.
func (m *MemorySource[I]) Splits() ([]SourceSplit[I], error) {
	out := make([]SourceSplit[I], len(m.Chunks))
	for i, c := range m.Chunks {
		out[i] = memorySplit[I](c)
	}
	return out, nil
}

type memorySplit[I any] []I

// Records implements CountedSplit.
func (s memorySplit[I]) Records() int { return len(s) }

func (s memorySplit[I]) Each(yield func(I) bool) error {
	for _, rec := range s {
		if !yield(rec) {
			return nil
		}
	}
	return nil
}
