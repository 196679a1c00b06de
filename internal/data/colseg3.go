package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
)

// SPQ3: the compressed block payload of columnar cell segments (framing
// and the decoded in-memory form, ColumnBlock, are in colseg.go). Each
// column is compressed:
//
//   - ids: zigzag-varint deltas from the previous id. Seal order sorts
//     ids within a cell, so deltas are small.
//   - coordinates: lossless xor-delta bit-packing. Each float64's bits are
//     XORed with the previous value's bits; the block-wide OR of the
//     deltas determines a common (trailing-zero count, significant width)
//     window, and every delta stores only its `width` bits, LSB first.
//     Sorted, spatially clustered cells share exponent and high mantissa
//     bits, so the window is far narrower than 64 bits — and a constant
//     column (every delta zero) stores zero data bits.
//   - keywords: a per-block sorted dictionary of the distinct keyword ids
//     (delta-varint coded), each record's keyword count |f.W|, then one
//     inverted posting list per dictionary entry mapping it back to the
//     records that carry it, each stored in whichever of two forms is
//     fewer bytes: a record bitmap, or delta-varint record indexes. Every
//     list's byte length is stored ahead of the lists, so a reader finds
//     any list without parsing the others: a query decodes only the lists
//     of its own keywords (ColumnBlock.CountHits), and the count column
//     gives the |f.W| scoring needs.
//
// Block payload layout (all varints unsigned LEB128 unless noted):
//
//	version  byte      '4'
//	kind     byte      'D' or 'F'
//	count    uvarint   records in the block, 1..colMaxBlockRecords
//	ids      count zigzag varints, delta-coded from the previous id
//	xs, ys   per column: trail byte, width byte,
//	         ceil(count*width/8) bytes of LSB-first packed deltas
//	if 'F':
//	    dictLen  uvarint   distinct keyword ids in the block
//	    dict     dictLen uvarints: first id raw, then ascending deltas
//	    kwLen    count uvarints: each record's keyword count (<= dictLen)
//	    lens     dictLen uvarints: each list's byte length L, in dictionary
//	             order, 1 <= L <= ceil(count/8)
//	    lists    the posting lists back to back, list e taking lens[e] bytes:
//	        L == ceil(count/8): a record bitmap, bit i set = record i has
//	                            the keyword, bits past count clear
//	        L <  ceil(count/8): delta varints filling exactly L bytes: the
//	                            first record index raw, then strictly
//	                            ascending deltas, all < count
//
// The writer keeps the varint form only when it is strictly fewer bytes
// than the bitmap, so the length alone names the form.
//
// Decoding (decodeColBlock) enforces every structural invariant outside the
// lists — windows within 64 bits, an ascending dictionary, counts and
// lengths within bounds, no trailing bytes — and bounds every allocation
// by the payload size, so corrupt input errors out rather than panicking
// or ballooning memory. The lists stay encoded, aliasing the frame; a list
// is validated in full (ascending, in range, exact length, bitmap tail bits
// clear, no record on more lists than its keyword count) whenever it is
// read — by CountHits for a query's own lists, by ColumnBlock.Validate for
// all of them.

// col3Magic identifies an SPQ3 segment file. Readers never dispatch on
// the file header (blocks are self-describing), but the magic keeps
// segment files identifiable on disk.
var col3Magic = [4]byte{'S', 'P', 'Q', '3'}

// col3Version is the payload version byte. Payloads of the retired
// layouts — the uncompressed one, which opened with its kind byte, and
// version '3', whose posting lists carried no byte lengths — are rejected
// as unknown versions.
const col3Version = '4'

// Adaptive block sizing: the block is the pruning and decode granule, so
// its ideal size follows cell density. Sparse cells want small blocks
// (less over-read per surviving block); dense clustered cells can afford
// larger ones (fewer frames and zone maps for the same data). The seal
// path sizes blocks as ~8*sqrt(cell records), rounded to a power of two
// and clamped to [colMinBlockRecords, colMaxBlockRecords]. The maximum is
// also a format limit: the writer never builds a larger block, and the
// decoder rejects a record count above it.
const (
	colMinBlockRecords = 256
	colMaxBlockRecords = 4096
)

// AdaptiveBlockRecords returns the SPQ3 block size, in records, for a
// cell holding cellRecords objects.
func AdaptiveBlockRecords(cellRecords int) int {
	if cellRecords <= 0 {
		return colMinBlockRecords
	}
	target := 8 * math.Sqrt(float64(cellRecords))
	b := colMinBlockRecords
	// Round to the nearest power of two: double while the geometric
	// midpoint of (b, 2b) is still below the target.
	for b < colMaxBlockRecords && float64(b)*math.Sqrt2 < target {
		b <<= 1
	}
	return b
}

// columnBlockOverhead approximates a block's fixed footprint (the
// struct with its column slice headers) for cache accounting.
const columnBlockOverhead = 240

// MemBytes returns the memory footprint of the block's columns. The
// segment cache charges this against its byte budget, so adaptive block
// sizes cannot blow the cache's memory bound the way an entry count
// could. The decoder and the builder retain every column at exactly its
// length, so the lengths charged here are the capacities held. Post is
// charged as the buffer it aliases: the whole frame a feature block was
// decoded from, or the builder's exact-size list bytes.
func (b *ColumnBlock) MemBytes() int {
	return columnBlockOverhead +
		8*len(b.IDs) + 8*len(b.Xs) + 8*len(b.Ys) + 4*len(b.KwLen) +
		4*len(b.Dict) + 4*len(b.PostOff) + b.held
}

// encodeCol3Block renders a built block (see BuildBlock) as one SPQ3 block
// payload.
func encodeCol3Block(buf *bytes.Buffer, b *ColumnBlock) {
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	putVarint := func(v int64) {
		n := binary.PutVarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	buf.WriteByte(col3Version)
	buf.WriteByte(colKindByte(b.Kind))
	putUvarint(uint64(b.Len()))
	prev := uint64(0)
	for _, id := range b.IDs {
		putVarint(int64(id - prev)) // two's-complement delta, zigzag-coded
		prev = id
	}
	deltas := make([]uint64, b.Len())
	for i, x := range b.Xs {
		deltas[i] = math.Float64bits(x)
	}
	packXorColumn(buf, deltas)
	for i, y := range b.Ys {
		deltas[i] = math.Float64bits(y)
	}
	packXorColumn(buf, deltas)
	if b.Kind != FeatureObject {
		return
	}

	putUvarint(uint64(len(b.Dict)))
	for i, kw := range b.Dict {
		if i == 0 {
			putUvarint(uint64(kw))
		} else {
			putUvarint(uint64(kw - b.Dict[i-1]))
		}
	}
	for _, n := range b.KwLen {
		putUvarint(uint64(n))
	}
	for e := range b.Dict {
		putUvarint(uint64(b.PostOff[e+1] - b.PostOff[e]))
	}
	buf.Write(b.Post)
}

// appendPosting appends one posting list — the ascending record indexes
// recs — as delta varints or as a record bitmap of bitmapBytes bytes.
// The builder picks the varints only when they are strictly fewer bytes
// (varintListSize), so the decoder tells the forms apart by length alone.
func appendPosting(dst []byte, recs []uint32, varints bool, bitmapBytes int) []byte {
	if varints {
		prev := uint32(0)
		for _, r := range recs {
			dst = binary.AppendUvarint(dst, uint64(r-prev))
			prev = r
		}
		return dst
	}
	start := len(dst)
	dst = append(dst, make([]byte, bitmapBytes)...)
	for _, r := range recs {
		dst[start+int(r>>3)] |= 1 << (r & 7)
	}
	return dst
}

// varintListSize is the byte length of recs as delta varints.
func varintListSize(recs []uint32) int {
	n, prev := 0, uint32(0)
	for _, r := range recs {
		n += (bits.Len32(r-prev|1) + 6) / 7
		prev = r
	}
	return n
}

// packXorColumn appends one xor-delta bit-packed column: vals carries the
// raw float64 bit patterns and is clobbered in place with the xor deltas.
func packXorColumn(buf *bytes.Buffer, vals []uint64) {
	var or, prev uint64
	for i, b := range vals {
		vals[i] = b ^ prev
		prev = b
		or |= vals[i]
	}
	if or == 0 {
		buf.WriteByte(0) // trail
		buf.WriteByte(0) // width: a constant-zero column stores no bits
		return
	}
	trail := uint(bits.TrailingZeros64(or))
	width := uint(bits.Len64(or >> trail))
	buf.WriteByte(byte(trail))
	buf.WriteByte(byte(width))
	var acc uint64 // pending stream bits [0, nacc)
	var hi uint64  // pending stream bits [64, ...) after a wide append
	var nacc uint
	for _, d := range vals {
		v := d >> trail
		acc |= v << nacc
		if nacc > 0 {
			hi = v >> (64 - nacc)
		}
		nacc += width
		for nacc >= 8 {
			buf.WriteByte(byte(acc))
			acc = acc>>8 | hi<<56
			hi >>= 8
			nacc -= 8
		}
	}
	if nacc > 0 {
		buf.WriteByte(byte(acc))
	}
}

// unpackXorColumn decodes one bit-packed column of len(out) values from the
// head of p, reading the packed bytes in place, and returns the rest of p.
func unpackXorColumn(p []byte, out []float64) ([]byte, error) {
	if len(p) < 2 {
		return nil, errCorrupt("coordinate column: missing trail or width byte")
	}
	trail, width := p[0], p[1]
	p = p[2:]
	if trail > 63 || width > 64 || int(trail)+int(width) > 64 {
		return nil, errCorrupt("coordinate window trail=%d width=%d exceeds 64 bits", trail, width)
	}
	if width == 0 {
		clear(out)
		return p, nil
	}
	need := (len(out)*int(width) + 7) / 8
	if len(p) < need {
		return nil, errCorrupt("truncated coordinate column: %d bytes left, need %d", len(p), need)
	}
	packed := p[:need]
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	// A value is assembled from one unconditional 8-byte load plus at most
	// one spill byte. While that 9-byte window lies inside the column the
	// load reads packed in place; the last values, whose window would run
	// past the end, read a zero-padded copy of the final bytes.
	var tail [24]byte
	window, base := packed, 0 // window[0] is byte base of the column
	prev := uint64(0)
	for i := range out {
		bitPos := i * int(width)
		off := bitPos >> 3
		shift := uint(bitPos & 7)
		if off+9 > base+len(window) {
			// At most 8 bytes remain from off, so this window and every
			// later one fit the padded copy.
			copy(tail[:], packed[off:])
			window, base = tail[:], off
		}
		v := binary.LittleEndian.Uint64(window[off-base:]) >> shift
		if rem := 64 - shift; uint(width) > rem {
			v |= uint64(window[off-base+8]) << rem
		}
		prev ^= (v & mask) << trail
		out[i] = math.Float64frombits(prev)
	}
	return p[need:], nil
}

// decodeColBlock decodes one block payload (the bytes between the frame's
// length prefix and its CRC). Every structural violation outside the
// posting lists — an unknown version byte, truncation, impossible counts or
// lengths, an unsorted dictionary, trailing garbage — returns an error;
// malformed input can never panic, silently yield objects, or allocate
// beyond a small multiple of the payload size. The posting lists are kept
// encoded, aliasing payload, and validated when read (see CountHits and
// Validate). This is the fuzzing boundary of the format.
func decodeColBlock(payload []byte) (*ColumnBlock, error) {
	if len(payload) < 1 {
		return nil, errCorrupt("missing version byte")
	}
	if payload[0] != col3Version {
		return nil, errCorrupt("unknown payload version byte %#x", payload[0])
	}
	if len(payload) < 2 {
		return nil, errCorrupt("missing kind byte")
	}
	if len(payload) > math.MaxInt32 {
		return nil, errCorrupt("payload of %d bytes exceeds 2 GiB", len(payload))
	}
	var kind Kind
	switch payload[1] {
	case colKindData:
		kind = DataObject
	case colKindFeature:
		kind = FeatureObject
	default:
		return nil, errCorrupt("unknown kind byte %#x", payload[1])
	}
	count64, p, ok := uvarint(payload[2:])
	if !ok {
		return nil, errCorrupt("record count: truncated or overlong varint")
	}
	if count64 == 0 {
		return nil, errCorrupt("empty block")
	}
	if count64 > colMaxBlockRecords {
		return nil, errCorrupt("record count %d exceeds the %d-record block limit", count64, colMaxBlockRecords)
	}
	// Each record needs at least one id byte, so the count is bounded by
	// the payload size; checking before allocating keeps a hostile count
	// varint from forcing a large allocation.
	if count64 > uint64(len(p)) {
		return nil, errCorrupt("record count %d exceeds payload size %d", count64, len(payload))
	}
	count := int(count64)
	b := &ColumnBlock{
		Kind: kind,
		IDs:  make([]uint64, count),
		Xs:   make([]float64, count),
		Ys:   make([]float64, count),
	}
	prev := uint64(0)
	for i := range b.IDs {
		var u uint64
		if u, p, ok = uvarint(p); !ok {
			return nil, errCorrupt("id delta %d: truncated or overlong varint", i)
		}
		prev += u>>1 ^ -(u & 1) // zigzag
		b.IDs[i] = prev
	}
	var err error
	if p, err = unpackXorColumn(p, b.Xs); err != nil {
		return nil, err
	}
	if p, err = unpackXorColumn(p, b.Ys); err != nil {
		return nil, err
	}
	if kind == FeatureObject {
		if p, err = decodeCol3Keywords(p, b); err != nil {
			return nil, err
		}
	}
	if len(p) != 0 {
		return nil, errCorrupt("%d trailing bytes", len(p))
	}
	return b, nil
}

// decodeCol3Keywords decodes the keyword section of a feature block from
// the head of p — the dictionary (Dict), the keyword counts (KwLen) and the
// list lengths (PostOff) — leaves the lists themselves encoded in place
// (Post aliases p), and returns the rest of p.
func decodeCol3Keywords(p []byte, b *ColumnBlock) ([]byte, error) {
	count := len(b.IDs)
	dictLen64, p, ok := uvarint(p)
	if !ok {
		return nil, errCorrupt("dictionary length: truncated or overlong varint")
	}
	// Each dictionary entry costs at least one id byte, one length byte and
	// one list byte.
	if dictLen64 > uint64(len(p))/3 {
		return nil, errCorrupt("dictionary length %d exceeds the %d bytes left", dictLen64, len(p))
	}
	dict := make([]uint32, int(dictLen64))
	kw := uint64(0)
	for i := range dict {
		var v uint64
		if v, p, ok = uvarint(p); !ok {
			return nil, errCorrupt("dictionary id %d: truncated or overlong varint", i)
		}
		if i > 0 && v == 0 {
			return nil, errCorrupt("dictionary not strictly ascending at entry %d", i)
		}
		// Checking the delta too keeps kw+v from wrapping around.
		if kw += v; v > math.MaxUint32 || kw > math.MaxUint32 {
			return nil, errCorrupt("dictionary id %d overflows uint32", i)
		}
		dict[i] = uint32(kw)
	}

	kwLen := make([]uint32, count)
	for i := range kwLen {
		var v uint64
		if v, p, ok = uvarint(p); !ok {
			return nil, errCorrupt("keyword count %d: truncated or overlong varint", i)
		}
		if v > dictLen64 {
			return nil, errCorrupt("record %d counts %d keywords, the block holds %d", i, v, dictLen64)
		}
		kwLen[i] = uint32(v)
	}

	bitmapBytes := uint64(count+7) / 8
	off := make([]int32, len(dict)+1)
	total := 0
	for e := range dict {
		var n uint64
		if n, p, ok = uvarint(p); !ok {
			return nil, errCorrupt("posting %d length: truncated or overlong varint", e)
		}
		if n == 0 {
			return nil, errCorrupt("posting %d is empty", e)
		}
		if n > bitmapBytes {
			return nil, errCorrupt("posting %d takes %d bytes, more than a %d-byte bitmap", e, n, bitmapBytes)
		}
		// The lists follow the lengths, so their total is bounded by what
		// is left; the payload limit keeps the offsets within int32.
		if total += int(n); total > len(p) {
			return nil, errCorrupt("posting lists need %d bytes, %d left", total, len(p))
		}
		off[e+1] = int32(total)
	}
	b.Dict, b.KwLen, b.PostOff = dict, kwLen, off
	if total > 0 {
		b.Post = p[:total:total]
	}
	return p[total:], nil
}
