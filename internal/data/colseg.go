package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

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
//     (ColumnBlock) exactly once; the map phase then views records as
//     stack-allocated Object values whose keyword sets alias the block's
//     flat keyword column — no per-record allocation, and a decoded block
//     is shared read-only by every concurrent query through the segment
//     cache (BlockCache).
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

// flushBlock encodes the pending objects as one framed block and records
// its zone map.
func (c *ColWriter) flushBlock() error {
	if len(c.pending) == 0 {
		return nil
	}
	if err := c.writeHeader(); err != nil {
		return err
	}
	c.buf.Reset()
	encodeCol3Block(&c.buf, c.kind, c.pending)
	payload := c.buf.Bytes()

	bs := BlockStats{Records: len(c.pending), Offset: c.off}
	bs.Bounds = geo.Rect{MinX: 1, MaxX: -1} // empty
	if c.kind == FeatureObject {
		bs.Keywords = NewKeywordBloom()
	}
	for _, o := range c.pending {
		bs.Bounds = bs.Bounds.Union(geo.Rect{MinX: o.Loc.X, MinY: o.Loc.Y, MaxX: o.Loc.X, MaxY: o.Loc.Y})
		if c.kind == FeatureObject && c.dict != nil {
			for _, w := range c.dict.Words(o.Keywords) {
				bs.Keywords.Add(w)
			}
		}
	}

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
	c.pending = c.pending[:0]
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

// ColumnBlock is one decoded column block: parallel slices holding the
// block's records in struct-of-arrays layout. A decoded block is immutable
// and safe for concurrent readers; the segment cache shares one instance
// across queries.
type ColumnBlock struct {
	Kind Kind
	IDs  []uint64
	Xs   []float64
	Ys   []float64
	// KwOff and Kws hold the keyword postings of a feature block: record
	// i's keywords are Kws[KwOff[i]:KwOff[i+1]]. Nil for data blocks.
	KwOff []int32
	Kws   []uint32
	// Dict, PostOff and PostRecs are the inverted view the decoder gets
	// for free from the on-disk posting lists: Dict is the block's
	// sorted distinct keyword ids, and keyword Dict[e] occurs on records
	// PostRecs[PostOff[e]:PostOff[e+1]] (ascending). The columnar source
	// intersects a query's keyword set with Dict to skip records the
	// Map-phase keyword prune would drop, without materializing them.
	// Nil for data blocks.
	Dict     []uint32
	PostOff  []int32
	PostRecs []uint32
}

// Len returns the number of records in the block.
func (b *ColumnBlock) Len() int { return len(b.IDs) }

// Object views record i as an Object. The value is constructed on the
// caller's stack; its keyword set aliases the block's flat keyword column,
// so no per-record heap allocation happens on the read path.
func (b *ColumnBlock) Object(i int) Object {
	o := Object{Kind: b.Kind, ID: b.IDs[i], Loc: geo.Point{X: b.Xs[i], Y: b.Ys[i]}}
	if b.KwOff != nil {
		if kws := b.Kws[b.KwOff[i]:b.KwOff[i+1]]; len(kws) > 0 {
			o.Keywords = text.KeywordSet(kws)
		}
	}
	return o
}

// errCorrupt builds the uniform corrupt-block error.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("data: corrupt column block: "+format, args...)
}

// byteReaderSlice adapts a byte slice for binary varint readers while
// tracking the position.
type byteReaderSlice struct {
	buf []byte
	pos int
}

func (r *byteReaderSlice) ReadByte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *byteReaderSlice) remaining() int { return len(r.buf) - r.pos }

// DecodeColFrame validates and decodes one framed block as stored on disk:
// varint payload length, payload, CRC32. frame must be exactly the bytes
// BlockStats.{Offset,Length} describe.
func DecodeColFrame(frame []byte) (*ColumnBlock, error) {
	r := &byteReaderSlice{buf: frame}
	length, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, errCorrupt("frame length: %v", err)
	}
	if length > uint64(r.remaining()) || r.remaining()-int(length) != 4 {
		return nil, errCorrupt("frame of %d bytes does not hold a %d-byte payload plus CRC", len(frame), length)
	}
	payload := frame[r.pos : r.pos+int(length)]
	want := binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, errCorrupt("CRC mismatch: computed %#x, stored %#x", got, want)
	}
	return decodeColBlock(payload)
}
