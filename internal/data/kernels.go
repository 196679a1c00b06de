package data

import (
	"encoding/binary"
	"math/bits"
)

// Decode kernels of the SPQ3 keyword section: the varint reader, the
// readers of the header's fixed-width columns and dictionary bitmap, and
// the two posting-list walkers. A query runs them on every block it reads
// — the header lookups once per query keyword, the walkers once per
// stored posting entry — so the loops consume their input from the head
// of a slice (p = p[1:] behind a length test) and validate every record
// index against the length of the columns they are about to read or
// write. That validation is the reader's safety check and the compiler's
// bounds proof at once: the CI pipeline builds this package with
// -gcflags=-d=ssa/check_bce and fails if a bounds check appears in this
// file.

// uvarint decodes one unsigned LEB128 varint from the head of p and
// returns it with the rest of p. ok is false when p ends inside the
// varint or the value overflows 64 bits.
func uvarint(p []byte) (v uint64, rest []byte, ok bool) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), p[1:], true
	}
	var shift uint
	for i, b := range p {
		if i == binary.MaxVarintLen64 {
			break
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return v | uint64(b)<<shift, p[i+1:], true
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, p, false
}

// fixedAt reads value i of a column of w-byte little-endian values (w is
// 1, 2 or 4) in place. ok is false when the column holds no value i.
func fixedAt(col []byte, w int, i uint64) (v uint32, ok bool) {
	lo := i * uint64(w)
	if lo >= uint64(len(col)) {
		return 0, false
	}
	q := col[lo:]
	switch w {
	case 1:
		if len(q) >= 1 {
			return uint32(q[0]), true
		}
	case 2:
		if len(q) >= 2 {
			return uint32(binary.LittleEndian.Uint16(q)), true
		}
	case 4:
		if len(q) >= 4 {
			return binary.LittleEndian.Uint32(q), true
		}
	}
	return 0, false
}

// sumFixed returns the sum of a column of w-byte little-endian values, the
// start of the posting list that follows the lengths col holds. One-byte
// lengths, the common width, are summed sixteen at a time: the byte pairs
// of two words are added into four 16-bit lanes, each growing by at most
// 1,020 a step, so 64 steps fit before the lanes are folded into s.
func sumFixed(col []byte, w int) (s uint64) {
	switch w {
	case 1:
		const lanes = 0x00FF00FF00FF00FF
		for len(col) >= 16 {
			var acc uint64
			for n := 0; n < 64 && len(col) >= 16; n++ {
				x, y := binary.LittleEndian.Uint64(col), binary.LittleEndian.Uint64(col[8:])
				col = col[16:]
				acc += x&lanes + x>>8&lanes + y&lanes + y>>8&lanes
			}
			acc = acc&0x0000FFFF0000FFFF + acc>>16&0x0000FFFF0000FFFF
			s += acc&0xFFFFFFFF + acc>>32
		}
		for _, c := range col {
			s += uint64(c)
		}
	case 2:
		for len(col) >= 2 {
			s += uint64(binary.LittleEndian.Uint16(col))
			col = col[2:]
		}
	case 4:
		for len(col) >= 4 {
			s += uint64(binary.LittleEndian.Uint32(col))
			col = col[4:]
		}
	}
	return s
}

// popcount returns the number of set bits in p: the rank, in a bitmap
// dictionary, of the entry at the first bit past p.
func popcount(p []byte) (n int) {
	for len(p) >= 8 {
		n += bits.OnesCount64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	for _, c := range p {
		n += bits.OnesCount8(c)
	}
	return n
}

// kwCounts is the keyword-count column of a feature block, read in place:
// one w-byte count per record, none above max, the dictionary size.
type kwCounts struct {
	col []byte
	w   int
	max uint32
}

// sparseHits walks a delta-varint posting list that fills list exactly:
// the first record index raw, then strictly ascending deltas, every index
// below the record count. For each index rec it adds one to hits[rec],
// refusing to take it past the record's keyword count, and sets bit rec
// of marks. bad names the violated invariant, empty on success.
func sparseHits(list []byte, c kwCounts, hits []uint32, marks []uint64) (bad string) {
	limit := uint64(len(c.col) / c.w)
	var rec uint64
	for first := true; len(list) > 0; first = false {
		// One-byte deltas are nearly all of them; taking that case here
		// rather than through uvarint saves a call per entry.
		var d uint64
		if list[0] < 0x80 {
			d, list = uint64(list[0]), list[1:]
		} else {
			var ok bool
			if d, list, ok = uvarint(list); !ok {
				return "truncated or overlong index"
			}
		}
		// A delta at or past the record count cannot land in range, and
		// refusing it here keeps rec+d from wrapping around.
		if d >= limit {
			return "index out of range"
		}
		if first {
			rec = d
		} else if d == 0 {
			return "not strictly ascending"
		} else {
			rec += d
		}
		if bad := hit(rec, c, hits, marks); bad != "" {
			return bad
		}
	}
	return ""
}

// bitmapHits walks a record bitmap (bit i set = record i carries the
// keyword) like sparseHits walks a varint list. A bit at or beyond the
// record count — the tail-bits check — or a bitmap with no bit set is bad.
func bitmapHits(bm []byte, c kwCounts, hits []uint32, marks []uint64) (bad string) {
	base, set := uint64(0), false
	for len(bm) >= 8 {
		w := binary.LittleEndian.Uint64(bm)
		bm = bm[8:]
		set = set || w != 0
		for ; w != 0; w &= w - 1 {
			if bad := hit(base+uint64(bits.TrailingZeros64(w)), c, hits, marks); bad != "" {
				return bad
			}
		}
		base += 64
	}
	for _, bv := range bm {
		set = set || bv != 0
		for ; bv != 0; bv &= bv - 1 {
			if bad := hit(base+uint64(bits.TrailingZeros8(bv)), c, hits, marks); bad != "" {
				return bad
			}
		}
		base += 8
	}
	if !set {
		return "empty bitmap"
	}
	return ""
}

// hit records one posting entry for record rec: one more hit, within its
// keyword count, which must itself be within the dictionary, and its mark
// bit. The guards are the range checks and the compiler's bounds proof.
func hit(rec uint64, c kwCounts, hits []uint32, marks []uint64) (bad string) {
	// One-byte counts, the common width, are read without fixedAt's
	// general path.
	var n uint32
	if c.w == 1 && rec < uint64(len(c.col)) {
		n = uint32(c.col[rec])
	} else {
		var ok bool
		if n, ok = fixedAt(c.col, c.w, rec); !ok {
			return "index out of range"
		}
	}
	if rec >= uint64(len(hits)) || rec>>6 >= uint64(len(marks)) {
		return "index out of range"
	}
	if n > c.max {
		return "a record counts more keywords than the block holds"
	}
	if hits[rec] >= n {
		return "a record is on more lists than its keyword count"
	}
	hits[rec]++
	marks[rec>>6] |= 1 << (rec & 63)
	return ""
}
