package data

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"spq/internal/mapreduce"
)

// Counter names segment-read instrumentation is reported under. The
// engine owns the master-side totals; worker processes fold their own
// SegIOStats under the same names (plus a ".<worker>" suffix for the
// per-worker split) into task counter deltas, and the two add up in the
// query report.
const (
	CounterSegBytesRead    = "spq.seg.bytes.read"
	CounterSegBytesDecoded = "spq.seg.bytes.decoded"
)

// SegIOStats accumulates the storage traffic of one query's columnar
// reads: BytesRead is what was fetched from storage (compressed frame
// bytes; zero on a segment-cache hit), BytesDecoded the in-memory size of
// the blocks opened from those reads, as the segment cache charges it
// (ColumnBlock.MemBytes): the decoded id and coordinate columns, plus, for
// a feature block, the frame its keyword header and posting lists stay
// in and a varint-form dictionary's decoded ids. The engine surfaces both
// as the spq.seg.bytes.* query counters. Safe for the concurrent map
// tasks of one job.
type SegIOStats struct {
	BytesRead    atomic.Int64
	BytesDecoded atomic.Int64
}

// RangeReader is the storage access a columnar segment reader needs:
// random-access ranged reads, nothing else. dfs.FileSystem satisfies it on
// the master, mapreduce.TaskIO on a worker.
type RangeReader interface {
	// ReadRange returns up to n bytes of the named file starting at off.
	// The bytes are read-only, and must stay unchanged for as long as the
	// caller holds them: they may be the storage's own, and a decoded
	// feature block keeps its keyword header and posting lists by aliasing
	// the frame it was read into (see DecodeColFrame).
	ReadRange(file string, off int64, n int) ([]byte, error)
}

// ColSel selects what a reader reads of one cell: the cell's entry, shared
// with the manifest (or the delta's block cut) it belongs to, never a
// copy, plus the indices of the blocks to read. A nil Blocks slice selects
// every block, as a data view's build reads them; the query planner's
// selections carry the surviving indices. Resident holds the blocks of a
// delta cell, which live in memory, never encoded, one per zone map; nil
// for a sealed cell, stored as an SPQ3 segment.
type ColSel struct {
	Cell     *CellStats
	Blocks   []int
	Resident []*ColumnBlock
}

// SelectAll selects every block of every cell, each selection pointing
// at its entry of cells.
func SelectAll(cells []CellStats) []ColSel {
	sels := make([]ColSel, len(cells))
	for i := range cells {
		sels[i].Cell = &cells[i]
	}
	return sels
}

// ColInput is a MapReduce source over column blocks: one split per
// selected block. A stored block is fetched by ranged read at the zone
// map's offset and decoded into dense column buffers — or served straight
// from the decoded-segment cache; a resident block is served as it is.
// Splits report their payload size and record count, so
// mapreduce.Coalesce packs them into balanced map tasks exactly like file
// splits. A split hands its block whole to a job that maps batches
// (mapreduce.BatchSplit, one *ColumnBlock per split) and views it record
// by record for every other reader.
type ColInput struct {
	R     RangeReader
	Cells []ColSel
	// Cache, when non-nil, memoizes decoded blocks across queries. Gen
	// scopes the cache keys to one storage generation.
	Cache *BlockCache
	Gen   uint64
	// IO, when non-nil, accumulates the bytes read and decoded by this
	// input's splits.
	IO *SegIOStats
}

// NewColInput constructs a columnar source.
func NewColInput(r RangeReader, cells []ColSel, cache *BlockCache, gen uint64) *ColInput {
	return &ColInput{R: r, Cells: cells, Cache: cache, Gen: gen}
}

// Splits implements mapreduce.Source.
func (c *ColInput) Splits() ([]mapreduce.SourceSplit[Object], error) {
	var out []mapreduce.SourceSplit[Object]
	for _, sel := range c.Cells {
		if len(sel.Cell.Blocks) == 0 {
			return nil, fmt.Errorf("data: columnar read of cell %q: manifest carries no block zone maps", sel.Cell.File)
		}
		if sel.Resident != nil && len(sel.Resident) != len(sel.Cell.Blocks) {
			return nil, fmt.Errorf("data: columnar read of cell %q: %d resident blocks for %d zone maps", sel.Cell.File, len(sel.Resident), len(sel.Cell.Blocks))
		}
		split := func(i int) *colSplit {
			s := &colSplit{in: c, file: sel.Cell.File, idx: i, bs: &sel.Cell.Blocks[i]}
			if sel.Resident != nil {
				s.block = sel.Resident[i]
			}
			return s
		}
		idxs := sel.Blocks
		if idxs == nil {
			for i := range sel.Cell.Blocks {
				out = append(out, split(i))
			}
			continue
		}
		for _, i := range idxs {
			if i < 0 || i >= len(sel.Cell.Blocks) {
				return nil, fmt.Errorf("data: columnar read of cell %q: block %d of %d selected", sel.Cell.File, i, len(sel.Cell.Blocks))
			}
			out = append(out, split(i))
		}
	}
	return out, nil
}

// colSplit reads one column block; bs is its zone map, in the manifest.
type colSplit struct {
	in   *ColInput
	file string
	idx  int
	bs   *BlockStats
	// block is the resident block; nil for a block read from storage.
	block *ColumnBlock
}

// Size implements mapreduce.SizedSplit: a stored block weighs its frame
// bytes, a resident one — which has no frame — its columns' bytes.
func (s *colSplit) Size() int64 {
	if s.block != nil {
		return int64(s.block.MemBytes())
	}
	return int64(s.bs.Length)
}

// Records implements mapreduce.CountedSplit.
func (s *colSplit) Records() int { return s.bs.Records }

// SplitRef implements mapreduce.RefSplit: a columnar split is one block
// frame, described by its byte range plus the block index and record
// count (Extra). The zone map stays master-side — the worker only decodes
// the frame, it never re-plans. A resident block has no frame a worker
// could read, so a job with one stays in-process.
func (s *colSplit) SplitRef() (*mapreduce.SplitRef, error) {
	if s.block != nil {
		return nil, fmt.Errorf("data: block %d of %q is resident in memory, not stored", s.idx, s.file)
	}
	extra := binary.AppendUvarint(nil, uint64(s.idx))
	extra = binary.AppendUvarint(extra, uint64(s.bs.Records))
	return &mapreduce.SplitRef{Kind: "col", File: s.file, Offset: s.bs.Offset, Length: int64(s.bs.Length), Extra: extra}, nil
}

// OpenRef re-opens a "col" split reference against this input (typically
// a worker-side ColInput whose RangeReader fetches through the task's I/O
// context). The split decodes the exact frame range the master planned.
// The descriptor arrives over RPC, so every field is checked: a malformed
// one fails its task permanently instead of crashing the worker.
func (c *ColInput) OpenRef(ref *mapreduce.SplitRef) (mapreduce.SourceSplit[Object], error) {
	bad := func(what string) error {
		return mapreduce.Permanent(fmt.Errorf("data: col split ref %q: %s", ref.File, what))
	}
	if ref.Offset < 0 || ref.Length <= 0 {
		return nil, bad(fmt.Sprintf("bad frame range %d+%d", ref.Offset, ref.Length))
	}
	idx, n := binary.Uvarint(ref.Extra)
	if n <= 0 {
		return nil, bad("bad block index")
	}
	records, n2 := binary.Uvarint(ref.Extra[n:])
	if n2 <= 0 || records == 0 {
		return nil, bad("bad record count")
	}
	if n+n2 != len(ref.Extra) {
		return nil, bad("trailing bytes after the record count")
	}
	return &colSplit{
		in:   c,
		file: ref.File,
		idx:  int(idx),
		bs:   &BlockStats{Records: int(records), Offset: ref.Offset, Length: int(ref.Length)},
	}, nil
}

// Each implements mapreduce.SourceSplit: fetch (or reuse) the decoded
// block, validate all of its posting lists, and view its records as
// Objects (see ColumnBlock.Object). A block that fails validation reads
// the same on every attempt, so the error is permanent.
func (s *colSplit) Each(yield func(Object) bool) error {
	b, err := s.fetch()
	if err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return mapreduce.Permanent(fmt.Errorf("data: segment %s block %d: %w", s.file, s.idx, err))
	}
	for i := 0; i < b.Len(); i++ {
		if !yield(b.Object(i)) {
			return nil
		}
	}
	return nil
}

// EachBatch implements mapreduce.BatchSplit: the split's one batch is its
// decoded *ColumnBlock.
func (s *colSplit) EachBatch(yield func(batch any) bool) error {
	b, err := s.fetch()
	if err != nil {
		return err
	}
	yield(b)
	return nil
}

// fetch returns the resident block, or else the decoded block, from the
// segment cache when possible, checked against the record count the zone
// map promised.
func (s *colSplit) fetch() (*ColumnBlock, error) {
	if s.block != nil {
		return s.block, nil
	}
	key := BlockKey{Gen: s.in.Gen, File: s.file, Index: s.idx}
	b, ok := s.in.Cache.Get(key)
	if !ok {
		frame, err := s.in.R.ReadRange(s.file, s.bs.Offset, s.bs.Length)
		if err != nil {
			return nil, fmt.Errorf("data: segment %s block %d: %w", s.file, s.idx, err)
		}
		if len(frame) != s.bs.Length {
			return nil, fmt.Errorf("data: segment %s block %d: read %d of %d bytes", s.file, s.idx, len(frame), s.bs.Length)
		}
		if b, err = DecodeColFrame(frame); err != nil {
			return nil, fmt.Errorf("data: segment %s block %d: %w", s.file, s.idx, err)
		}
		if s.in.IO != nil {
			s.in.IO.BytesRead.Add(int64(len(frame)))
			s.in.IO.BytesDecoded.Add(int64(b.MemBytes()))
		}
		s.in.Cache.Put(key, b)
	}
	if b.Len() != s.bs.Records {
		return nil, fmt.Errorf("data: segment %s block %d: decoded %d records, zone map says %d",
			s.file, s.idx, b.Len(), s.bs.Records)
	}
	return b, nil
}
