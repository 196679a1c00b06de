package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
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
//     (ColumnBlock) exactly once: ids and coordinates. A feature block's
//     keyword header — dictionary, keyword counts, list lengths — and its
//     posting lists stay encoded in the frame: a query looks up only its
//     own keywords, decodes only their lists and reads only the counts of
//     the records they mark (see ColumnBlock.CountHits); no per-record
//     keyword set exists on the query path, no allocation is made per
//     record, and a decoded block is shared read-only by every concurrent
//     query through the segment cache (BlockCache).
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

// BlockStats is the zone map of one column block, kept in the seal
// manifest next to the owning cell's statistics. Offset and Length frame
// the block inside its segment file (varint length prefix through trailing
// CRC), so a reader fetches exactly the surviving blocks with one ranged
// read each.
type BlockStats struct {
	// Records is the number of objects in the block.
	Records int
	// Offset is the byte position of the block's frame in the segment
	// file; Length is the frame's total byte count.
	Offset int64
	Length int
	// Bounds is the tight bounding rectangle of the block's objects.
	Bounds geo.Rect
	// Keywords summarizes the keywords of the block's features. Empty for
	// data blocks.
	Keywords KeywordBloom
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
// largest block size (see AdaptiveBlockRecords), which is also the limit
// a larger value is clamped to.
func NewCol3Writer(w io.Writer, kind Kind, dict *text.Dict, blockRecords int) *ColWriter {
	if blockRecords <= 0 || blockRecords > colMaxBlockRecords {
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
	// kw is a feature block's keywords as the format stores them (see
	// colseg3.go): a dictionary, each record's keyword count, and the
	// posting lists inverting the records' keyword sets, still encoded. A
	// query needs |f.W ∩ q.W| and |f.W| of a feature and nothing else of
	// its keywords; CountHits decodes the first from the lists of the
	// query's own keywords and KwLen reads the second. A decoded block's
	// section aliases the frame it was decoded from. Empty for data blocks.
	kw kwSection
	// held is the byte size of the buffer kw aliases, which MemBytes
	// charges.
	held int

	// Validate walks every posting list once and, on success, leaves the
	// forward view behind — record i's keywords are kws[kwOff[i]:kwOff[i+1]].
	// Queries never ask for it; it serves readers that want whole records
	// (tests, and record-at-a-time readers such as core.CellWeights handed
	// a columnar source), and the segment cache does not charge for it.
	fwdOnce sync.Once
	fwdErr  error
	kwOff   []int32
	kws     []uint32
}

// Len returns the number of records in the block.
func (b *ColumnBlock) Len() int { return len(b.IDs) }

// KwLen returns the keyword count |f.W| of record i of a feature block,
// read in place; 0 for a data block. Only a read that validates a count
// checks it against the block's dictionary — CountHits for the records it
// marks, Validate for all — so read it for those records.
func (b *ColumnBlock) KwLen(i int) uint32 {
	n, _ := fixedAt(b.kw.counts, b.kw.w, uint64(i))
	return n
}

// Validate checks every posting list of a feature block in full — the
// checks CountHits makes on a query's lists, plus that every record is on
// exactly as many lists as its keyword count — and builds the forward
// view Object reads. It runs once per block; later calls return the first
// result. Readers that want whole records call it before Object.
func (b *ColumnBlock) Validate() error {
	if b.Kind != FeatureObject {
		return nil
	}
	b.fwdOnce.Do(func() { b.kwOff, b.kws, b.fwdErr = b.forward() })
	return b.fwdErr
}

// Object views record i as an Object. The keyword set of a feature aliases
// the block's forward view, which the first call builds through Validate;
// concurrent callers are safe. On a block Validate rejects, features carry
// no keywords.
func (b *ColumnBlock) Object(i int) Object {
	o := Object{Kind: b.Kind, ID: b.IDs[i], Loc: geo.Point{X: b.Xs[i], Y: b.Ys[i]}}
	if b.Kind == FeatureObject && b.Validate() == nil {
		o.Keywords = keywordsAt(b.kwOff, b.kws, i)
	}
	return o
}

// keywordsAt returns record i's keyword set from a forward view (nil when
// empty, like a parsed record's).
func keywordsAt(kwOff []int32, kws []uint32, i int) text.KeywordSet {
	if s := kws[kwOff[i]:kwOff[i+1]:kwOff[i+1]]; len(s) > 0 {
		return s
	}
	return nil
}

// forward validates the whole keyword section and scatters the posting
// lists back into per-record keyword sets. A first pass counts each
// record's lists against its keyword count, so the view is sized by
// entries the lists really hold; the second walks the lists again in
// ascending dictionary order, which fills each record's set strictly
// ascending — the KeywordSet invariant — for free.
func (b *ColumnBlock) forward() (kwOff []int32, kws []uint32, err error) {
	n := b.Len()
	ids, err := b.kw.ids()
	if err != nil {
		return nil, nil, err
	}
	hits := make([]uint32, n)
	marks := make([]uint64, (n+63)/64)
	err = b.kw.eachList(ids, (n+7)/8, func(e int, kw uint32, list []byte) error {
		return b.listHits(e, kw, list, hits, marks)
	})
	if err != nil {
		return nil, nil, err
	}
	kwOff = make([]int32, n+1)
	for i, h := range hits {
		if c := b.KwLen(i); h != c {
			return nil, nil, errCorrupt("record %d is on %d posting lists, its keyword count is %d", i, h, c)
		}
		kwOff[i+1] = kwOff[i] + int32(h)
	}
	kws = make([]uint32, kwOff[n])
	fill := append([]int32(nil), kwOff[:n]...) // per-record write cursor
	clear(hits)
	err = b.kw.eachList(ids, (n+7)/8, func(e int, kw uint32, list []byte) error {
		clear(marks)
		if err := b.listHits(e, kw, list, hits, marks); err != nil {
			return err
		}
		for wi, w := range marks {
			for ; w != 0; w &= w - 1 {
				rec := wi<<6 | bits.TrailingZeros64(w)
				kws[fill[rec]] = kw
				fill[rec]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return kwOff, kws, nil
}

// AppendObjects appends the block's records to dst as Objects. Unlike
// Object it leaves no forward view behind, so reading a resident block
// back — a compaction re-sealing it — does not grow the block. b must be
// a built block (BuildBlock) or one Validate accepted; a posting list that
// fails validation here is a broken invariant and panics.
func (b *ColumnBlock) AppendObjects(dst []Object) []Object {
	var kwOff []int32
	var kws []uint32
	if b.Kind == FeatureObject {
		var err error
		if kwOff, kws, err = b.forward(); err != nil {
			panic(fmt.Sprintf("data: AppendObjects on an invalid block: %v", err))
		}
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

// BuildBlock lays objs — a non-empty run of at most colMaxBlockRecords
// records of one kind — out as one column block, with no decoding step,
// and returns it with its zone map: record count, tight bounds and, for
// features, the bloom of the block's keywords (resolved through dict; an
// empty bloom when dict is nil). The columns equal what DecodeColFrame
// produces from the block's SPQ3 frame — the keyword section is encoded
// to the same bytes, which the block reads in place — and the zone map
// equals the one the segment writer records, minus the frame's position.
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
	kwLen := make([]uint32, n)
	cursor := make(map[uint32]int32)
	for i, o := range objs {
		kwLen[i] = uint32(len(o.Keywords))
		for _, kw := range o.Keywords {
			cursor[kw]++
		}
	}
	ids := make([]uint32, 0, len(cursor))
	for kw := range cursor {
		ids = append(ids, kw)
	}
	slices.Sort(ids)
	ents := make([]int32, len(ids)+1) // list e is recs[ents[e]:ents[e+1]]
	for e, kw := range ids {
		ents[e+1] = ents[e] + cursor[kw]
		cursor[kw] = ents[e]
	}
	recs := make([]uint32, ents[len(ids)])
	for i, o := range objs {
		for _, kw := range o.Keywords {
			recs[cursor[kw]] = uint32(i)
			cursor[kw]++
		}
	}
	enc := encodeKwSection(kwLen, ids, recs, ents)
	var err error
	if b.kw, err = parseKwSection(enc, n); err != nil {
		panic(fmt.Sprintf("data: BuildBlock encoded a keyword section it cannot open: %v", err))
	}
	b.held = len(enc)
	bs.Keywords = NewKeywordBloom()
	if dict != nil {
		for _, kw := range ids {
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
// are looked up in the block's encoded dictionary — binary-searched among
// varint-form ids, or found by bit and popcount rank in a bitmap — in one
// ascending pass, and only the matched posting lists are decoded, straight
// into hits and marks, so a keyword the block does not hold, and every list
// of another keyword, costs nothing. Everything the lookups read is
// validated as it is read: the bitmap's range and rank, each matched
// list's length and extent, the list itself, and the keyword count of
// each record it marks. A bitmap that does not start and end on an entry
// or holds more entries than stored, a list that is empty, longer than the
// record bitmap or past the lists, not strictly ascending, indexes past
// the block, does not fill its stored length exactly or sets a bitmap bit
// past the last record, and a record counting more keywords than the
// dictionary holds or on more lists than it counts, is an error, and hits
// and marks are then partly updated.
func (b *ColumnBlock) CountHits(kws []uint32, hits []uint32, marks []uint64) error {
	if err := b.kw.checkBitmap(); err != nil {
		return err
	}
	bitmapBytes := (b.Len() + 7) / 8
	c := dictCursor{k: &b.kw}
	for _, kw := range kws {
		found, end, err := c.seek(kw)
		if err != nil {
			return err
		}
		if end {
			return nil
		}
		if !found {
			continue
		}
		list, err := c.list(bitmapBytes)
		if err != nil {
			return err
		}
		if err := b.listHits(c.e, kw, list, hits, marks); err != nil {
			return err
		}
	}
	return nil
}

// Posting returns the encoded posting list of keyword kw (see colseg3.go),
// aliasing the block, or nil when the block does not hold kw, after the
// checks CountHits makes of the header it reads.
func (b *ColumnBlock) Posting(kw uint32) ([]byte, error) {
	if err := b.kw.checkBitmap(); err != nil {
		return nil, err
	}
	c := dictCursor{k: &b.kw}
	if found, _, err := c.seek(kw); !found {
		return nil, err
	}
	return c.list((b.Len() + 7) / 8)
}

// listHits decodes list, posting list e of keyword kw, into hits and marks
// (see CountHits), dispatching on its form: a list exactly as long as the
// record bitmap is one.
func (b *ColumnBlock) listHits(e int, kw uint32, list []byte, hits []uint32, marks []uint64) error {
	c := kwCounts{col: b.kw.counts, w: b.kw.w, max: uint32(b.kw.size)}
	var bad string
	if len(list) == (b.Len()+7)/8 {
		bad = bitmapHits(list, c, hits, marks)
	} else {
		bad = sparseHits(list, c, hits, marks)
	}
	if bad != "" {
		return errCorrupt("posting list %d (keyword %d): %s", e, kw, bad)
	}
	return nil
}

// errCorrupt builds the uniform corrupt-block error.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("data: corrupt column block: "+format, args...)
}

// DecodeColFrame validates and decodes one framed block as stored on disk:
// varint payload length, payload, CRC32. frame must be exactly the bytes
// BlockStats.{Offset,Length} describe. A feature block keeps its keyword
// header and posting lists encoded in place: the block aliases frame,
// which must stay unmodified for the block's life — the read-only bytes
// RangeReader.ReadRange returns — and MemBytes charges cap(frame). A
// frame whose capacity is capped at its length (frame[lo:hi:hi]) is
// charged at its length, though it keeps the buffer it was cut from
// reachable.
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
	b, err := decodeColBlock(payload)
	if err != nil {
		return nil, err
	}
	if b.Kind == FeatureObject {
		b.held = cap(frame)
	}
	return b, nil
}
