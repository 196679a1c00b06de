package data

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"
)

// SPQ3: the compressed block payload of columnar cell segments (framing
// and the in-memory form, ColumnBlock, are in colseg.go). Each column is
// compressed:
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
//   - keywords: a searchable header, then one inverted posting list per
//     keyword of the block mapping it back to the records that carry it.
//     The header is a per-block sorted dictionary of the distinct keyword
//     ids, each record's keyword count |f.W| and each list's byte length,
//     the last two as fixed-width columns. A reader never decodes it: a
//     query looks its few keywords up in the dictionary, finds each list
//     at the sum of the lengths before it, and reads the counts of only
//     the records its lists mark (ColumnBlock.CountHits, KwLen).
//
// Block payload layout (all varints unsigned LEB128 unless noted):
//
//	version  byte      '5'
//	kind     byte      'D' or 'F'
//	count    uvarint   records in the block, 1..colMaxBlockRecords
//	ids      count zigzag varints, delta-coded from the previous id
//	xs, ys   per column: trail byte, width byte,
//	         ceil(count*width/8) bytes of LSB-first packed deltas
//	if 'F', the keyword section:
//	    flags     byte      bit 0: the dictionary form, 1 = bitmap;
//	                        bits 1-3: w, the byte width of every count
//	                        and length, 1, 2 or 4; bits 4-7 clear
//	    dictLen   uvarint   distinct keyword ids in the block
//	    postLen   uvarint   byte length of the posting lists
//	    dict      in one of two forms, whichever is fewer bytes (varints
//	              on a tie):
//	        varints  dictLen uvarints: the first id raw, then ascending
//	                 deltas
//	        bitmap   first uvarint, the lowest id; n uvarint; n bytes of
//	                 bitmap over [first, first+8n): bit j set = id first+j
//	                 is an entry, bit 0 and the last byte set, dictLen
//	                 bits set in all; entry e is the e-th set bit
//	    counts    count values of w bytes, little-endian: each record's
//	              keyword count, <= dictLen
//	    lens      dictLen values of w bytes, little-endian: each list's
//	              byte length L, in dictionary order, 1 <= L <= ceil(count/8)
//	    lists     postLen bytes: the posting lists back to back, list e
//	              starting at the sum of the lengths before it:
//	        L == ceil(count/8): a record bitmap, bit i set = record i has
//	                            the keyword, bits past count clear
//	        L <  ceil(count/8): delta varints filling exactly L bytes: the
//	                            first record index raw, then strictly
//	                            ascending deltas, all < count
//
// The writer keeps a varint list only when it is strictly fewer bytes than
// the bitmap, so the length alone names the list's form, and it picks the
// narrowest w that holds every count and length.
//
// Opening a block (decodeColBlock) decodes the id and coordinate columns,
// enforcing windows within 64 bits and record counts within bounds; of the
// keyword section it checks only what O(1) work can — the flags, that
// every section fits the payload, that the lists end exactly at its end —
// and decodes a varint-form dictionary, which is not searchable in place.
// Every allocation is bounded by the payload size, so corrupt input errors
// out rather than panicking or ballooning memory. The rest of the section
// stays encoded, aliasing the frame, and is validated whenever it is read:
// the bitmap's range and rank, a list's length and extent, a record's
// count against the dictionary, and the list itself (ascending, in range,
// exact length, bitmap tail bits clear, no record on more lists than its
// keyword count) — by CountHits for a query's own keywords, by
// ColumnBlock.Validate for all of them.

// col3Magic identifies an SPQ3 segment file. Readers never dispatch on
// the file header (blocks are self-describing), but the magic keeps
// segment files identifiable on disk.
var col3Magic = [4]byte{'S', 'P', 'Q', '3'}

// col3Version is the payload version byte. Payloads of the retired
// layouts — the uncompressed one, which opened with its kind byte,
// version '3', whose posting lists carried no byte lengths, and version
// '4', whose keyword header was all varints and decoded whole — are
// rejected as unknown versions.
const col3Version = '5'

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

// columnBlockOverhead is a block's fixed footprint (the struct with its
// column slice headers) for cache accounting.
const columnBlockOverhead = int(unsafe.Sizeof(ColumnBlock{}))

// MemBytes returns the memory footprint of the block's columns. The
// segment cache charges this against its byte budget, so adaptive block
// sizes cannot blow the cache's memory bound the way an entry count
// could. The decoder and the builder retain every column at exactly its
// length, so the lengths charged here are the capacities held. A feature
// block's keyword section is charged as the buffer it aliases: the frame
// the block was decoded from, at its capacity (its length, for a frame
// ReadRange cut from a replica), or the builder's exact-size section; a
// varint-form dictionary adds its decoded ids.
func (b *ColumnBlock) MemBytes() int {
	return columnBlockOverhead +
		8*len(b.IDs) + 8*len(b.Xs) + 8*len(b.Ys) + 4*len(b.kw.dict) + b.held
}

// encodeCol3Block renders a built block (see BuildBlock) as one SPQ3 block
// payload. A built feature block already holds its keyword section
// encoded.
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
	buf.Write(b.kw.enc)
}

// Keyword section flags (see the layout above).
const (
	kwFlagBitmap = 1 // the dictionary is a bitmap, not delta varints
	kwWidthShift = 1 // w, the byte width of counts and lengths, in bits 1-3
	kwFlagsKnown = kwFlagBitmap | 7<<kwWidthShift
)

// kwSection is the keyword section of a feature block as SPQ3 stores it,
// flags byte through posting lists, never decoded: every slice aliases
// enc, the section's bytes, except dict, the decoded ids of a varint-form
// dictionary. The zero value is the empty section of a data block.
type kwSection struct {
	enc    []byte
	w      int  // byte width of every count and length: 1, 2 or 4
	size   int  // dictionary entries
	bitmap bool // the dictionary form
	// first and bits are a bitmap-form dictionary: bit j of bits set = id
	// first+j is an entry. dict is a varint-form one, ascending.
	first  uint32
	bits   []byte
	dict   []uint32
	counts []byte // each record's keyword count, w bytes each
	lens   []byte // each list's byte length, w bytes each, in entry order
	post   []byte // the posting lists, back to back
}

// encodeKwSection encodes a feature block's keyword section: kwLen is each
// record's keyword count, dict the sorted distinct ids, and
// recs[ents[e]:ents[e+1]] — ascending record indexes — the records
// carrying dict[e]. The result is exactly as long as the section.
func encodeKwSection(kwLen, dict, recs []uint32, ents []int32) []byte {
	n := len(kwLen)
	bitmapBytes := (n + 7) / 8
	// Every list in its smaller form — the bitmap on a tie — and the
	// narrowest width holding every count and length.
	listLen := func(e int) int { return min(varintListSize(recs[ents[e]:ents[e+1]]), bitmapBytes) }
	postLen, widest := 0, uint32(0)
	for e := range dict {
		l := listLen(e)
		postLen += l
		widest = max(widest, uint32(l))
	}
	for _, c := range kwLen {
		widest = max(widest, c)
	}
	w := 1
	if widest > math.MaxUint16 {
		w = 4
	} else if widest > math.MaxUint8 {
		w = 2
	}
	// The dictionary in its smaller form, the varints on a tie.
	varintDict, prev := 0, uint32(0)
	for _, kw := range dict {
		varintDict += uvarintLen(uint64(kw - prev))
		prev = kw
	}
	flags, dictBytes, span := byte(w<<kwWidthShift), varintDict, 0
	if len(dict) > 0 {
		span = (int(dict[len(dict)-1]-dict[0]) + 8) / 8
		if bitmapDict := uvarintLen(uint64(dict[0])) + uvarintLen(uint64(span)) + span; bitmapDict < varintDict {
			flags |= kwFlagBitmap
			dictBytes = bitmapDict
		}
	}

	size := 1 + uvarintLen(uint64(len(dict))) + uvarintLen(uint64(postLen)) + dictBytes + (n+len(dict))*w + postLen
	enc := make([]byte, 0, size)
	enc = append(enc, flags)
	enc = binary.AppendUvarint(enc, uint64(len(dict)))
	enc = binary.AppendUvarint(enc, uint64(postLen))
	if flags&kwFlagBitmap != 0 {
		enc = binary.AppendUvarint(enc, uint64(dict[0]))
		enc = binary.AppendUvarint(enc, uint64(span))
		bm := len(enc)
		enc = append(enc, make([]byte, span)...)
		for _, kw := range dict {
			j := kw - dict[0]
			enc[bm+int(j>>3)] |= 1 << (j & 7)
		}
	} else {
		prev = 0
		for _, kw := range dict {
			enc = binary.AppendUvarint(enc, uint64(kw-prev))
			prev = kw
		}
	}
	for _, c := range kwLen {
		enc = appendFixed(enc, c, w)
	}
	for e := range dict {
		enc = appendFixed(enc, uint32(listLen(e)), w)
	}
	for e := range dict {
		enc = appendPosting(enc, recs[ents[e]:ents[e+1]], listLen(e) < bitmapBytes, bitmapBytes)
	}
	return enc
}

// appendFixed appends v as a w-byte little-endian value.
func appendFixed(dst []byte, v uint32, w int) []byte {
	for range w {
		dst = append(dst, byte(v))
		v >>= 8
	}
	return dst
}

// uvarintLen is the byte length of v as an unsigned varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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
		n += uvarintLen(uint64(r - prev))
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
// length prefix and its CRC): the id and coordinate columns, and of a
// feature block the bounds of its keyword section's parts, which stay
// encoded, aliasing payload (see parseKwSection). Every structural
// violation outside that section — an unknown version byte, truncation,
// impossible counts, trailing garbage — returns an error; malformed input
// can never panic, silently yield objects, or allocate beyond a small
// multiple of the payload size. This is the fuzzing boundary of the
// format.
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
		if b.kw, err = parseKwSection(p, count); err != nil {
			return nil, err
		}
	} else if len(p) != 0 {
		return nil, errCorrupt("%d trailing bytes", len(p))
	}
	return b, nil
}

// parseKwSection opens the keyword section p of a feature block of count
// records — the payload's last bytes — without decoding it: it checks the
// flags and that every part fits, with the lists ending exactly at the end
// of p, and slices the parts out of p. Only a varint-form dictionary is
// decoded, into ids a query can binary-search. What the parts hold is
// checked when a read reaches it (see CountHits and Validate).
func parseKwSection(p []byte, count int) (kwSection, error) {
	k := kwSection{enc: p}
	if len(p) == 0 {
		return k, errCorrupt("missing keyword flags byte")
	}
	flags := p[0]
	if flags&^kwFlagsKnown != 0 {
		return k, errCorrupt("unknown keyword flags %#x", flags)
	}
	k.bitmap, k.w = flags&kwFlagBitmap != 0, int(flags>>kwWidthShift)
	if k.w != 1 && k.w != 2 && k.w != 4 {
		return k, errCorrupt("keyword column width %d is not 1, 2 or 4", k.w)
	}
	size, p, ok := uvarint(p[1:])
	if !ok {
		return k, errCorrupt("dictionary length: truncated or overlong varint")
	}
	// Every entry has a w-byte list length.
	if size > uint64(len(p)/k.w) {
		return k, errCorrupt("dictionary length %d exceeds the %d bytes left", size, len(p))
	}
	k.size = int(size)
	postLen, p, ok := uvarint(p)
	if !ok {
		return k, errCorrupt("posting lists length: truncated or overlong varint")
	}
	if k.bitmap {
		var first, n uint64
		if first, p, ok = uvarint(p); !ok || first > math.MaxUint32 {
			return k, errCorrupt("dictionary bitmap: bad first id")
		}
		if n, p, ok = uvarint(p); !ok || n > uint64(len(p)) {
			return k, errCorrupt("dictionary bitmap: length past the payload")
		}
		k.first, k.bits, p = uint32(first), p[:n:n], p[n:]
	} else {
		var err error
		if k.dict, p, err = decodeDict(p, k.size); err != nil {
			return k, err
		}
	}
	if count > len(p)/k.w {
		return k, errCorrupt("keyword counts need %d bytes, %d left", count*k.w, len(p))
	}
	n := count * k.w
	k.counts, p = p[:n:n], p[n:]
	if k.size > len(p)/k.w {
		return k, errCorrupt("list lengths need %d bytes, %d left", k.size*k.w, len(p))
	}
	n = k.size * k.w
	k.lens, p = p[:n:n], p[n:]
	if postLen > uint64(len(p)) {
		return k, errCorrupt("posting lists need %d bytes, %d left", postLen, len(p))
	}
	if uint64(len(p)) != postLen {
		return k, errCorrupt("%d trailing bytes", uint64(len(p))-postLen)
	}
	k.post = p
	return k, nil
}

// decodeDict decodes a varint-form dictionary of size entries from the
// head of p — the first id raw, then strictly ascending deltas — and
// returns it with the rest of p.
func decodeDict(p []byte, size int) ([]uint32, []byte, error) {
	// Each entry takes at least one byte.
	if size > len(p) {
		return nil, nil, errCorrupt("dictionary length %d exceeds the %d bytes left", size, len(p))
	}
	dict := make([]uint32, size)
	kw := uint64(0)
	for i := range dict {
		v, rest, ok := uvarint(p)
		if !ok {
			return nil, nil, errCorrupt("dictionary id %d: truncated or overlong varint", i)
		}
		p = rest
		if i > 0 && v == 0 {
			return nil, nil, errCorrupt("dictionary not strictly ascending at entry %d", i)
		}
		// Checking the delta too keeps kw+v from wrapping around.
		if kw += v; v > math.MaxUint32 || kw > math.MaxUint32 {
			return nil, nil, errCorrupt("dictionary id %d overflows uint32", i)
		}
		dict[i] = uint32(kw)
	}
	return dict, p, nil
}

// checkBitmap checks the range of a bitmap-form dictionary, what a lookup
// relies on and O(1) can check: bit 0 and the last byte set, so first and
// the highest set bit are the smallest and largest entries, and no entry
// past the largest uint32.
func (k *kwSection) checkBitmap() error {
	if !k.bitmap {
		return nil
	}
	bm := k.bits
	if len(bm) == 0 || bm[0]&1 == 0 || bm[len(bm)-1] == 0 {
		return errCorrupt("dictionary bitmap of %d bytes does not start and end on an entry", len(bm))
	}
	if last := uint64(k.first) + uint64(8*(len(bm)-1)+bits.Len8(bm[len(bm)-1])-1); last > math.MaxUint32 {
		return errCorrupt("dictionary bitmap reaches id %d, past uint32", last)
	}
	return nil
}

// dictCursor looks up ascending keyword ids in a keyword section. It keeps
// the entry and list start it reached, so the lookups of a sorted query
// cost one pass over the part of the header below its largest hit: the
// bitmap's popcount and the sum of the list lengths up to there.
type dictCursor struct {
	k     *kwSection
	kw    uint32 // the last id sought
	e     int    // entry at the cursor
	start int    // byte offset of list e in post: the lengths before it summed
	// byteAt and rankAt are a bitmap-form cursor: the bitmap bytes passed
	// and the entries among them.
	byteAt, rankAt int
}

// seek moves the cursor to id kw. found reports that kw is an entry, now
// the cursor's; end that no id from kw on is. An id below the previous one
// sought starts the walk over.
func (c *dictCursor) seek(kw uint32) (found, end bool, err error) {
	k := c.k
	if kw < c.kw {
		*c = dictCursor{k: k}
	}
	c.kw = kw
	var e int
	if k.bitmap {
		if kw < k.first {
			return false, false, nil
		}
		j := uint64(kw - k.first)
		if j>>3 >= uint64(len(k.bits)) {
			return false, true, nil
		}
		jb := int(j >> 3)
		c.rankAt += popcount(k.bits[c.byteAt:jb])
		c.byteAt = jb
		if k.bits[jb]>>(j&7)&1 == 0 {
			return false, false, nil
		}
		if e = c.rankAt + bits.OnesCount8(k.bits[jb]&(1<<(j&7)-1)); e >= k.size {
			return false, false, errCorrupt("dictionary bitmap holds more than its %d entries", k.size)
		}
	} else {
		lo, hi := c.e, len(k.dict)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if k.dict[mid] < kw {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(k.dict) {
			return false, true, nil
		}
		if k.dict[lo] != kw {
			return false, false, nil
		}
		e = lo
	}
	c.start += int(sumFixed(k.lens[c.e*k.w:e*k.w], k.w))
	c.e = e
	return true, false, nil
}

// list returns the posting list of the cursor's entry after the checks a
// read makes of its length: within [1, bitmapBytes] and ending within the
// lists.
func (c *dictCursor) list(bitmapBytes int) ([]byte, error) {
	k := c.k
	n, _ := fixedAt(k.lens, k.w, uint64(c.e))
	switch {
	case n == 0:
		return nil, errCorrupt("posting %d is empty", c.e)
	case int64(n) > int64(bitmapBytes):
		return nil, errCorrupt("posting %d takes %d bytes, more than a %d-byte bitmap", c.e, n, bitmapBytes)
	case c.start+int(n) > len(k.post):
		return nil, errCorrupt("posting %d ends at byte %d, past the %d bytes of lists", c.e, c.start+int(n), len(k.post))
	}
	return k.post[c.start : c.start+int(n)], nil
}

// ids returns the whole dictionary, ascending, after the checks only a
// full read of a bitmap-form one can make: its range, and that it holds
// exactly its entries. A varint-form dictionary is already decoded.
func (k *kwSection) ids() ([]uint32, error) {
	if !k.bitmap {
		return k.dict, nil
	}
	if err := k.checkBitmap(); err != nil {
		return nil, err
	}
	if n := popcount(k.bits); n != k.size {
		return nil, errCorrupt("dictionary bitmap holds %d entries, the block %d", n, k.size)
	}
	ids := make([]uint32, 0, k.size)
	for i, c := range k.bits {
		for ; c != 0; c &= c - 1 {
			ids = append(ids, k.first+uint32(8*i+bits.TrailingZeros8(c)))
		}
	}
	return ids, nil
}

// eachList calls fn with every posting list in dictionary order, ids being
// the dictionary (see ids), after the checks a query makes of each list's
// length and extent; then it checks that the lists fill their section
// exactly, which only a full read can.
func (k *kwSection) eachList(ids []uint32, bitmapBytes int, fn func(e int, kw uint32, list []byte) error) error {
	c := dictCursor{k: k}
	for e, kw := range ids {
		c.e = e
		list, err := c.list(bitmapBytes)
		if err != nil {
			return err
		}
		if err := fn(e, kw, list); err != nil {
			return err
		}
		c.start += len(list)
	}
	if c.start != len(k.post) {
		return errCorrupt("posting lists fill %d of their %d bytes", c.start, len(k.post))
	}
	return nil
}
