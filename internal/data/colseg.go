package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"spq/internal/geo"
	"spq/internal/text"
)

// Columnar cell segments. A segment stores the objects of one seal-grid
// cell as column blocks in struct-of-arrays layout: all ids, then all x
// coordinates, then all y coordinates, then — for feature cells — the
// keyword postings. Disk-based keyword search systems organize postings
// the same way (block-organized lists with per-block metadata) because it
// buys two things record files cannot offer:
//
//  1. Block skipping. Every block carries a zone map — record count,
//     tight bounding rectangle, keyword bloom — persisted in the seal
//     manifest (CellStats.Blocks), so the query planner prunes at block
//     granularity and the reader fetches only surviving blocks by
//     (offset, length) random access.
//  2. Dense decode. A block decodes into parallel column slices
//     (ColumnBlock) exactly once: ids, coordinates, and — for features —
//     the keyword postings as stored, inverted, plus each record's keyword
//     count. A query maps the block from those columns (see
//     ColumnBlock.CountHits); no per-record keyword set exists on the
//     query path, no allocation is made per record, and a decoded block is
//     shared read-only by every concurrent query through the segment cache
//     (BlockCache).
//
// File layout (the block payload encoding, SPQ3, is in colseg3.go):
//
//	magic   [4]byte  "SPQ3"
//	kind    byte     'D' (data cell) or 'F' (feature cell)
//	repeat per block:
//	    length  uvarint   payload byte count
//	    payload []byte    one encoded column block
//	    crc32   [4]byte   IEEE CRC of payload, little-endian
//
// Readers never scan a segment: block offsets and lengths come from the
// manifest's zone maps, and the per-block CRC turns any corruption —
// truncation, bit rot, a wrong offset — into an error instead of garbage
// objects or a panic (see DecodeColFrame and the package fuzz tests).

// Block kind bytes.
const (
	colKindData    = 'D'
	colKindFeature = 'F'
)

func colKindByte(k Kind) byte {
	if k == DataObject {
		return colKindData
	}
	return colKindFeature
}

// BlockStats is the zone map of one column block, persisted in the seal
// manifest next to the owning cell's statistics. Offset and Length frame
// the block inside its segment file (varint length prefix through trailing
// CRC), so a reader fetches exactly the surviving blocks with one ranged
// read each.
type BlockStats struct {
	// Records is the number of objects in the block.
	Records int `json:"records"`
	// Offset is the byte position of the block's frame in the segment
	// file; Length is the frame's total byte count.
	Offset int64 `json:"offset"`
	Length int   `json:"length"`
	// Bounds is the tight bounding rectangle of the block's objects.
	Bounds geo.Rect `json:"bounds"`
	// Keywords summarizes the keywords of the block's features. Empty for
	// data blocks.
	Keywords KeywordBloom `json:"keywords,omitempty"`
}

// ColWriter writes one cell's objects as a columnar segment, accumulating
// the per-block zone maps as it goes.
type ColWriter struct {
	w            io.Writer
	kind         Kind
	dict         *text.Dict
	blockRecords int
	off          int64
	headerDone   bool
	closer       io.Closer

	pending []Object
	stats   []BlockStats
	buf     bytes.Buffer // reused block-payload scratch
}

// NewCol3Writer creates a segment writer over w for a single-kind cell
// partition. dict resolves keyword ids to words for the per-block bloom
// summaries (may be nil for data cells). blockRecords <= 0 selects the
// largest block size (see AdaptiveBlockRecords).
func NewCol3Writer(w io.Writer, kind Kind, dict *text.Dict, blockRecords int) *ColWriter {
	if blockRecords <= 0 {
		blockRecords = colMaxBlockRecords
	}
	var c io.Closer
	if wc, ok := w.(io.Closer); ok {
		c = wc
	}
	return &ColWriter{w: w, kind: kind, dict: dict, blockRecords: blockRecords, closer: c}
}

func (c *ColWriter) writeHeader() error {
	if c.headerDone {
		return nil
	}
	if _, err := c.w.Write(col3Magic[:]); err != nil {
		return err
	}
	if _, err := c.w.Write([]byte{colKindByte(c.kind)}); err != nil {
		return err
	}
	c.off = int64(len(col3Magic)) + 1
	c.headerDone = true
	return nil
}

// Append adds one object. Objects of the wrong kind are rejected: a
// segment holds exactly one cell of one dataset.
func (c *ColWriter) Append(o Object) error {
	if o.Kind != c.kind {
		return fmt.Errorf("data: %s object %d appended to a %s segment", o.Kind, o.ID, c.kind)
	}
	c.pending = append(c.pending, o)
	if len(c.pending) >= c.blockRecords {
		return c.flushBlock()
	}
	return nil
}

// flushBlock builds the pending objects into one block and writes it.
func (c *ColWriter) flushBlock() error {
	if len(c.pending) == 0 {
		return nil
	}
	b, bs := BuildBlock(c.pending, c.dict)
	c.pending = c.pending[:0]
	return c.writeBlock(b, bs)
}

// writeBlock encodes one built block as a frame and records its zone map,
// completed with the frame's position in the segment.
func (c *ColWriter) writeBlock(b *ColumnBlock, bs BlockStats) error {
	if err := c.writeHeader(); err != nil {
		return err
	}
	c.buf.Reset()
	encodeCol3Block(&c.buf, b)
	payload := c.buf.Bytes()
	bs.Offset = c.off

	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := c.w.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := c.w.Write(payload); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	if _, err := c.w.Write(crcBuf[:]); err != nil {
		return err
	}
	bs.Length = n + len(payload) + len(crcBuf)
	c.off += int64(bs.Length)
	c.stats = append(c.stats, bs)
	return nil
}

// Close flushes the final partial block (and closes the underlying writer
// when it is an io.Closer). Empty segments still get a header.
func (c *ColWriter) Close() error {
	if err := c.flushBlock(); err != nil {
		return err
	}
	if err := c.writeHeader(); err != nil {
		return err
	}
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// Stats returns the zone maps of the blocks written so far, in file order.
// Call after Close for the complete set.
func (c *ColWriter) Stats() []BlockStats { return c.stats }

// ColumnBlock is one column block: parallel slices holding the block's
// records in struct-of-arrays layout. It is the only in-memory form of a
// run of records on the query path: BuildBlock lays objects out as one and
// DecodeColFrame decodes a stored frame into one, with equal columns. A
// block is immutable and safe for concurrent readers; the segment cache
// shares one decoded instance across queries.
type ColumnBlock struct {
	Kind Kind
	IDs  []uint64
	Xs   []float64
	Ys   []float64
	// KwLen is the keyword count |f.W| of every record of a feature block.
	// Dict, PostOff and PostRecs are its postings as the format stores
	// them, inverted: Dict is the block's sorted distinct keyword ids, and
	// keyword Dict[e] occurs on records PostRecs[PostOff[e]:PostOff[e+1]]
	// (ascending). A query needs |f.W ∩ q.W| and |f.W| of a feature and
	// nothing else of its keywords; CountHits reads the first off the
	// lists of the query's own keywords and KwLen is the second. All nil
	// for data blocks.
	KwLen    []uint32
	Dict     []uint32
	PostOff  []int32
	PostRecs []uint32

	// The forward view — record i's keywords are kws[kwOff[i]:kwOff[i+1]]
	// — is derived from the postings on the first Object call. Queries
	// never ask for it; it serves readers that want whole records (tests,
	// and record-at-a-time readers such as core.CellWeights handed a
	// columnar source), and the segment cache does not charge for it.
	fwdOnce sync.Once
	kwOff   []int32
	kws     []uint32
}

// Len returns the number of records in the block.
func (b *ColumnBlock) Len() int { return len(b.IDs) }

// Object views record i as an Object. The keyword set of a feature aliases
// the block's forward view, which the first call builds; concurrent
// callers are safe.
func (b *ColumnBlock) Object(i int) Object {
	o := Object{Kind: b.Kind, ID: b.IDs[i], Loc: geo.Point{X: b.Xs[i], Y: b.Ys[i]}}
	if b.KwLen != nil {
		o.Keywords = b.keywords(i)
	}
	return o
}

// keywords returns record i's keyword set from the forward view.
func (b *ColumnBlock) keywords(i int) text.KeywordSet {
	b.fwdOnce.Do(func() { b.kwOff, b.kws = b.forward() })
	return keywordsAt(b.kwOff, b.kws, i)
}

// keywordsAt returns record i's keyword set from a forward view (nil when
// empty, like a parsed record's).
func keywordsAt(kwOff []int32, kws []uint32, i int) text.KeywordSet {
	if s := kws[kwOff[i]:kwOff[i+1]:kwOff[i+1]]; len(s) > 0 {
		return s
	}
	return nil
}

// forward scatters the posting lists back into per-record keyword sets.
// Iterating the dictionary in ascending order fills each record's set
// strictly ascending — the KeywordSet invariant — for free.
func (b *ColumnBlock) forward() (kwOff []int32, kws []uint32) {
	kwOff = make([]int32, len(b.KwLen)+1)
	for i, n := range b.KwLen {
		kwOff[i+1] = kwOff[i] + int32(n)
	}
	kws = make([]uint32, len(b.PostRecs))
	fill := append([]int32(nil), kwOff[:len(b.KwLen)]...) // per-record write cursor
	for e, kw := range b.Dict {
		for _, rec := range b.PostRecs[b.PostOff[e]:b.PostOff[e+1]] {
			kws[fill[rec]] = kw
			fill[rec]++
		}
	}
	return kwOff, kws
}

// AppendObjects appends the block's records to dst as Objects. Unlike
// Object it leaves no forward view behind, so reading a resident block
// back — a compaction re-sealing it — does not grow the block.
func (b *ColumnBlock) AppendObjects(dst []Object) []Object {
	var kwOff []int32
	var kws []uint32
	if b.KwLen != nil {
		kwOff, kws = b.forward()
	}
	for i := range b.IDs {
		o := Object{Kind: b.Kind, ID: b.IDs[i], Loc: geo.Point{X: b.Xs[i], Y: b.Ys[i]}}
		if kwOff != nil {
			o.Keywords = keywordsAt(kwOff, kws, i)
		}
		dst = append(dst, o)
	}
	return dst
}

// BuildBlock lays objs — a non-empty run of records of one kind — out as
// one column block, with no encoding step, and returns it with its zone
// map: record count, tight bounds and, for features, the bloom of the
// block's keywords (resolved through dict; an empty bloom when dict is
// nil). The columns equal what DecodeColFrame produces from the block's
// SPQ3 frame, and the zone map equals the one the segment writer records,
// minus the frame's position.
func BuildBlock(objs []Object, dict *text.Dict) (*ColumnBlock, BlockStats) {
	n := len(objs)
	b := &ColumnBlock{Kind: objs[0].Kind, IDs: make([]uint64, n), Xs: make([]float64, n), Ys: make([]float64, n)}
	bs := BlockStats{Records: n, Bounds: geo.Rect{MinX: 1, MaxX: -1}}
	for i, o := range objs {
		b.IDs[i], b.Xs[i], b.Ys[i] = o.ID, o.Loc.X, o.Loc.Y
		bs.Bounds = bs.Bounds.Union(geo.Rect{MinX: o.Loc.X, MinY: o.Loc.Y, MaxX: o.Loc.X, MaxY: o.Loc.Y})
	}
	if b.Kind != FeatureObject {
		return b, bs
	}

	// Invert the keyword sets: count each keyword's records, lay the lists
	// out in ascending keyword order, then scatter the record indexes in
	// record order, so every list comes out ascending.
	b.KwLen = make([]uint32, n)
	cursor := make(map[uint32]int32)
	for i, o := range objs {
		b.KwLen[i] = uint32(len(o.Keywords))
		for _, kw := range o.Keywords {
			cursor[kw]++
		}
	}
	b.Dict = make([]uint32, 0, len(cursor))
	for kw := range cursor {
		b.Dict = append(b.Dict, kw)
	}
	slices.Sort(b.Dict)
	b.PostOff = make([]int32, len(b.Dict)+1)
	for e, kw := range b.Dict {
		b.PostOff[e+1] = b.PostOff[e] + cursor[kw]
		cursor[kw] = b.PostOff[e]
	}
	b.PostRecs = make([]uint32, b.PostOff[len(b.Dict)])
	for i, o := range objs {
		for _, kw := range o.Keywords {
			b.PostRecs[cursor[kw]] = uint32(i)
			cursor[kw]++
		}
	}
	bs.Keywords = NewKeywordBloom()
	if dict != nil {
		for _, kw := range b.Dict {
			bs.Keywords.Add(dict.Word(kw))
		}
	}
	return b, bs
}

// BuildBlocks cuts objs — the records of one seal-grid cell of one
// dataset — into blocks of AdaptiveBlockRecords(len(objs)) records with
// BuildBlock: the blocks and zone maps sealing the cell writes.
func BuildBlocks(objs []Object, dict *text.Dict) ([]*ColumnBlock, []BlockStats) {
	size := AdaptiveBlockRecords(len(objs))
	count := (len(objs) + size - 1) / size
	blocks, stats := make([]*ColumnBlock, 0, count), make([]BlockStats, 0, count)
	for lo := 0; lo < len(objs); lo += size {
		b, bs := BuildBlock(objs[lo:min(lo+size, len(objs))], dict)
		blocks, stats = append(blocks, b), append(stats, bs)
	}
	return blocks, stats
}

// CountHits resolves a query's sorted keyword-id set kws against a feature
// block: it adds to hits[i] the number of keywords of kws record i carries,
// |f.W ∩ kws|, and sets bit i of marks for every record with at least one.
// hits has one entry and marks one bit per record. The few query keywords
// are binary-searched in the block's sorted dictionary — the same
// asymmetric-intersection trade as text.KeywordSet — and only the matched
// posting lists are walked, so a keyword the block does not hold, and
// every record without a query keyword, costs nothing.
func (b *ColumnBlock) CountHits(kws []uint32, hits []uint32, marks []uint64) {
	dict := b.Dict
	off := 0
	for _, kw := range kws {
		// kws and dict are both ascending: search only past the last hit.
		lo, hi := off, len(dict)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if dict[mid] < kw {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(dict) {
			return
		}
		if dict[lo] == kw {
			addHits(hits, marks, b.PostRecs[b.PostOff[lo]:b.PostOff[lo+1]])
		}
		off = lo
	}
}

// errCorrupt builds the uniform corrupt-block error.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("data: corrupt column block: "+format, args...)
}

// DecodeColFrame validates and decodes one framed block as stored on disk:
// varint payload length, payload, CRC32. frame must be exactly the bytes
// BlockStats.{Offset,Length} describe.
func DecodeColFrame(frame []byte) (*ColumnBlock, error) {
	length, rest, ok := uvarint(frame)
	if !ok {
		return nil, errCorrupt("frame length: truncated or overlong varint")
	}
	if length > uint64(len(rest)) || len(rest)-int(length) != 4 {
		return nil, errCorrupt("frame of %d bytes does not hold a %d-byte payload plus CRC", len(frame), length)
	}
	payload := rest[:length]
	want := binary.LittleEndian.Uint32(rest[length:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, errCorrupt("CRC mismatch: computed %#x, stored %#x", got, want)
	}
	return decodeColBlock(payload)
}
