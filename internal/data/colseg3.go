package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
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
//     (delta-varint coded), then one inverted posting list per dictionary
//     entry mapping it back to the records that carry it. Dense postings
//     (≥ 1/8 of the records) store a record bitmap; sparse ones store
//     delta-varint record indexes. The decoder inverts the postings back
//     into the per-record KwOff/Kws layout the scoring code reads.
//
// Block payload layout (all varints unsigned LEB128 unless noted):
//
//	version  byte      '3'
//	kind     byte      'D' or 'F'
//	count    uvarint   records in the block (>= 1)
//	ids      count zigzag varints, delta-coded from the previous id
//	xs, ys   per column: trail byte, width byte,
//	         ceil(count*width/8) bytes of LSB-first packed deltas
//	if 'F':
//	    dictLen  uvarint   distinct keyword ids in the block
//	    dict     dictLen uvarints: first id raw, then ascending deltas
//	    per dictionary entry, in dictionary order:
//	        method  byte   0 = delta varints, 1 = bitmap
//	        if 0: n uvarint (>= 1), then n record indexes:
//	              first raw, then strictly ascending deltas, all < count
//	        if 1: ceil(count/8) bytes, bit i set = record i has the keyword
//
// The decoder enforces every structural invariant (windows within 64
// bits, ascending dictionaries and postings, bitmap tail bits clear, no
// trailing bytes) and bounds every allocation by the payload size, so
// corrupt input errors out rather than panicking or ballooning memory.

// col3Magic identifies an SPQ3 segment file. Readers never dispatch on
// the file header (blocks are self-describing), but the magic keeps
// segment files identifiable on disk.
var col3Magic = [4]byte{'S', 'P', 'Q', '3'}

// col3Version is the payload version byte. Payloads of the retired
// uncompressed format opened with their kind byte ('D' or 'F') instead and
// are rejected as corrupt.
const col3Version = '3'

// Adaptive block sizing: the block is the pruning and decode granule, so
// its ideal size follows cell density. Sparse cells want small blocks
// (less over-read per surviving block); dense clustered cells can afford
// larger ones (fewer frames and zone maps for the same data). The seal
// path sizes blocks as ~8*sqrt(cell records), rounded to a power of two
// and clamped to [colMinBlockRecords, colMaxBlockRecords].
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

// columnBlockOverhead approximates a decoded block's fixed footprint
// (struct header plus six slice headers) for cache accounting.
const columnBlockOverhead = 112

// MemBytes returns the decoded block's approximate memory footprint. The
// segment cache charges this against its byte budget, so adaptive block
// sizes cannot blow the cache's memory bound the way an entry count
// could.
func (b *ColumnBlock) MemBytes() int {
	return columnBlockOverhead +
		8*len(b.IDs) + 8*len(b.Xs) + 8*len(b.Ys) +
		4*len(b.KwOff) + 4*len(b.Kws) +
		4*len(b.Dict) + 4*len(b.PostOff) + 4*len(b.PostRecs)
}

// encodeCol3Block renders objs as one SPQ3 block payload.
func encodeCol3Block(buf *bytes.Buffer, kind Kind, objs []Object) {
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
	buf.WriteByte(colKindByte(kind))
	putUvarint(uint64(len(objs)))
	prev := uint64(0)
	for _, o := range objs {
		putVarint(int64(o.ID - prev)) // two's-complement delta, zigzag-coded
		prev = o.ID
	}
	deltas := make([]uint64, len(objs))
	for i, o := range objs {
		deltas[i] = math.Float64bits(o.Loc.X)
	}
	packXorColumn(buf, deltas)
	for i, o := range objs {
		deltas[i] = math.Float64bits(o.Loc.Y)
	}
	packXorColumn(buf, deltas)
	if kind != FeatureObject {
		return
	}

	// Invert the per-record keyword sets into per-keyword posting lists.
	// Records are scanned in block order, so each list is built ascending.
	postings := make(map[uint32][]uint32)
	for i, o := range objs {
		for _, kw := range o.Keywords {
			postings[kw] = append(postings[kw], uint32(i))
		}
	}
	dict := make([]uint32, 0, len(postings))
	for kw := range postings {
		dict = append(dict, kw)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	putUvarint(uint64(len(dict)))
	for i, kw := range dict {
		if i == 0 {
			putUvarint(uint64(kw))
		} else {
			putUvarint(uint64(kw - dict[i-1]))
		}
	}
	bitmapBytes := (len(objs) + 7) / 8
	for _, kw := range dict {
		recs := postings[kw]
		if len(recs) >= bitmapBytes {
			// Dense: a bitmap is no larger than one byte per entry.
			buf.WriteByte(1)
			start := buf.Len()
			buf.Write(make([]byte, bitmapBytes))
			bm := buf.Bytes()[start:]
			for _, r := range recs {
				bm[r>>3] |= 1 << (r & 7)
			}
			continue
		}
		buf.WriteByte(0)
		putUvarint(uint64(len(recs)))
		for j, r := range recs {
			if j == 0 {
				putUvarint(uint64(r))
			} else {
				putUvarint(uint64(r - recs[j-1]))
			}
		}
	}
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

// unpackXorColumn decodes one bit-packed column of count values into out.
func unpackXorColumn(r *byteReaderSlice, count int, out []float64) error {
	trail, err := r.ReadByte()
	if err != nil {
		return errCorrupt("coordinate column: missing trail byte")
	}
	width, err := r.ReadByte()
	if err != nil {
		return errCorrupt("coordinate column: missing width byte")
	}
	if trail > 63 || width > 64 || int(trail)+int(width) > 64 {
		return errCorrupt("coordinate window trail=%d width=%d exceeds 64 bits", trail, width)
	}
	if width == 0 {
		for i := range out[:count] {
			out[i] = 0
		}
		return nil
	}
	need := (count*int(width) + 7) / 8
	if r.remaining() < need {
		return errCorrupt("truncated coordinate column: %d bytes left, need %d", r.remaining(), need)
	}
	// Pad the packed bytes so every value can be assembled from one
	// unconditional 8-byte load plus at most one spill byte.
	padded := make([]byte, need+8)
	copy(padded, r.buf[r.pos:r.pos+need])
	r.pos += need
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	prev := uint64(0)
	for i := 0; i < count; i++ {
		bitPos := i * int(width)
		off := bitPos >> 3
		shift := uint(bitPos & 7)
		v := binary.LittleEndian.Uint64(padded[off:]) >> shift
		if rem := 64 - shift; uint(width) > rem {
			v |= uint64(padded[off+8]) << rem
		}
		prev ^= (v & mask) << trail
		out[i] = math.Float64frombits(prev)
	}
	return nil
}

// decodeColBlock decodes one block payload (the bytes between the frame's
// length prefix and its CRC). Every structural violation — an unknown
// version byte, truncation, impossible counts, unsorted keyword sets,
// trailing garbage — returns an error; malformed input can never panic,
// silently yield objects, or allocate beyond a small multiple of the
// payload size. This is the fuzzing boundary of the format.
func decodeColBlock(payload []byte) (*ColumnBlock, error) {
	r := &byteReaderSlice{buf: payload}
	version, err := r.ReadByte()
	if err != nil {
		return nil, errCorrupt("missing version byte")
	}
	if version != col3Version {
		return nil, errCorrupt("unknown payload version byte %#x", version)
	}
	kindByte, err := r.ReadByte()
	if err != nil {
		return nil, errCorrupt("missing kind byte")
	}
	var kind Kind
	switch kindByte {
	case colKindData:
		kind = DataObject
	case colKindFeature:
		kind = FeatureObject
	default:
		return nil, errCorrupt("unknown kind byte %#x", kindByte)
	}
	count64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, errCorrupt("record count: %v", err)
	}
	if count64 == 0 {
		return nil, errCorrupt("empty block")
	}
	// Each record needs at least one id byte, so the count is bounded by
	// the payload size; checking before allocating keeps a hostile count
	// varint from forcing a huge allocation.
	if count64 > uint64(r.remaining()) {
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
	for i := 0; i < count; i++ {
		d, err := binary.ReadVarint(r)
		if err != nil {
			return nil, errCorrupt("id delta %d: %v", i, err)
		}
		prev += uint64(d)
		b.IDs[i] = prev
	}
	if err := unpackXorColumn(r, count, b.Xs); err != nil {
		return nil, err
	}
	if err := unpackXorColumn(r, count, b.Ys); err != nil {
		return nil, err
	}
	if kind == FeatureObject {
		if err := decodeCol3Keywords(payload, r, count, b); err != nil {
			return nil, err
		}
	}
	if r.remaining() != 0 {
		return nil, errCorrupt("%d trailing bytes", r.remaining())
	}
	return b, nil
}

// decodeCol3Keywords decodes the dictionary and posting lists of a
// feature block and inverts them into the per-record KwOff/Kws columns.
func decodeCol3Keywords(payload []byte, r *byteReaderSlice, count int, b *ColumnBlock) error {
	dictLen64, err := binary.ReadUvarint(r)
	if err != nil {
		return errCorrupt("dictionary length: %v", err)
	}
	// Each dictionary entry costs at least one id byte plus one posting
	// method byte.
	if dictLen64 > uint64(r.remaining())/2 {
		return errCorrupt("dictionary length %d exceeds payload size %d", dictLen64, len(payload))
	}
	dictLen := int(dictLen64)
	dict := make([]uint32, dictLen)
	kw := uint64(0)
	for i := 0; i < dictLen; i++ {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return errCorrupt("dictionary id %d: %v", i, err)
		}
		if i == 0 {
			kw = v
		} else {
			if v == 0 {
				return errCorrupt("dictionary not strictly ascending at entry %d", i)
			}
			kw += v
		}
		if kw > math.MaxUint32 {
			return errCorrupt("dictionary id %d overflows uint32", kw)
		}
		dict[i] = uint32(kw)
	}

	// Pass 1: parse every posting list once, collecting the record indexes
	// and per-record keyword counts. Every posting entry costs at least one
	// stored bit, so the entry total is bounded by 8x the payload size.
	maxTotal := 8 * len(payload)
	bitmapBytes := (count + 7) / 8
	recs := make([]uint32, 0, min(maxTotal, 4*count))
	pOff := make([]int32, dictLen+1)
	cnt := make([]int32, count)
	total := 0
	for e := 0; e < dictLen; e++ {
		method, err := r.ReadByte()
		if err != nil {
			return errCorrupt("posting %d: missing method byte", e)
		}
		switch method {
		case 0:
			n64, err := binary.ReadUvarint(r)
			if err != nil {
				return errCorrupt("posting %d length: %v", e, err)
			}
			if n64 == 0 {
				return errCorrupt("posting %d is empty", e)
			}
			if n64 > uint64(count) {
				return errCorrupt("posting %d holds %d of %d records", e, n64, count)
			}
			rec := uint64(0)
			for j := 0; j < int(n64); j++ {
				d, err := binary.ReadUvarint(r)
				if err != nil {
					return errCorrupt("posting %d index %d: %v", e, j, err)
				}
				if j == 0 {
					rec = d
				} else {
					if d == 0 {
						return errCorrupt("posting %d not strictly ascending at index %d", e, j)
					}
					rec += d
				}
				if rec >= uint64(count) {
					return errCorrupt("posting %d index %d out of range", e, j)
				}
				recs = append(recs, uint32(rec))
				cnt[rec]++
			}
			total += int(n64)
		case 1:
			if r.remaining() < bitmapBytes {
				return errCorrupt("truncated posting %d bitmap: %d bytes left, need %d", e, r.remaining(), bitmapBytes)
			}
			bm := r.buf[r.pos : r.pos+bitmapBytes]
			r.pos += bitmapBytes
			n := 0
			for bi, bv := range bm {
				for bv != 0 {
					j := bits.TrailingZeros8(bv)
					bv &= bv - 1
					rec := bi<<3 | j
					if rec >= count {
						return errCorrupt("posting %d bitmap sets bit %d beyond %d records", e, rec, count)
					}
					recs = append(recs, uint32(rec))
					cnt[rec]++
					n++
				}
			}
			if n == 0 {
				return errCorrupt("posting %d is empty", e)
			}
			total += n
		default:
			return errCorrupt("posting %d: unknown method byte %#x", e, method)
		}
		if total > maxTotal {
			return errCorrupt("keyword total %d exceeds payload size %d", total, len(payload))
		}
		pOff[e+1] = int32(total)
	}

	// Retain the inverted view: the posting lists were just parsed, and
	// keeping them lets the columnar source skip irrelevant records by
	// dictionary intersection instead of testing every record's set.
	b.Dict = dict
	b.PostOff = pOff
	b.PostRecs = recs

	// Pass 2: scatter the postings back into per-record keyword sets.
	// Iterating the dictionary in ascending order fills each record's set
	// strictly ascending — the KeywordSet invariant — for free.
	b.KwOff = make([]int32, count+1)
	for i := 0; i < count; i++ {
		b.KwOff[i+1] = b.KwOff[i] + cnt[i]
	}
	b.Kws = make([]uint32, total)
	fill := cnt // reuse: becomes the per-record write cursor
	copy(fill, b.KwOff[:count])
	for e := 0; e < dictLen; e++ {
		kw := dict[e]
		for _, rec := range recs[pOff[e]:pOff[e+1]] {
			b.Kws[fill[rec]] = kw
			fill[rec]++
		}
	}
	return nil
}
