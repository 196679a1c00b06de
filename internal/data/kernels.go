package data

import (
	"encoding/binary"
	"math/bits"
)

// Decode kernels of the SPQ3 keyword section: the varint reader and the
// two posting-list walkers. A query decodes every posting list of its own
// keywords in every block it reads here — one step per stored entry — so
// the loops consume their input from the head of a slice (p = p[1:] behind
// a length test) and validate every record index against the length of
// the columns they are about to write. That validation is the reader's
// safety check and the compiler's bounds proof at once: the CI pipeline
// builds this package with -gcflags=-d=ssa/check_bce and fails if a bounds
// check appears in this file.

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

// sparseHits walks a delta-varint posting list that fills list exactly:
// the first record index raw, then strictly ascending deltas, every index
// below len(kwLen). For each index rec it adds one to hits[rec], refusing
// to take it past kwLen[rec], and sets bit rec of marks. bad names the
// violated invariant, empty on success.
func sparseHits(list []byte, kwLen, hits []uint32, marks []uint64) (bad string) {
	limit := uint64(len(kwLen))
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
		if bad := hit(rec, kwLen, hits, marks); bad != "" {
			return bad
		}
	}
	return ""
}

// bitmapHits walks a record bitmap (bit i set = record i carries the
// keyword) like sparseHits walks a varint list. A bit at or beyond
// len(kwLen) — the tail-bits check — or a bitmap with no bit set is bad.
func bitmapHits(bm []byte, kwLen, hits []uint32, marks []uint64) (bad string) {
	base, set := uint64(0), false
	for len(bm) >= 8 {
		w := binary.LittleEndian.Uint64(bm)
		bm = bm[8:]
		set = set || w != 0
		for ; w != 0; w &= w - 1 {
			if bad := hit(base+uint64(bits.TrailingZeros64(w)), kwLen, hits, marks); bad != "" {
				return bad
			}
		}
		base += 64
	}
	for _, bv := range bm {
		set = set || bv != 0
		for ; bv != 0; bv &= bv - 1 {
			if bad := hit(base+uint64(bits.TrailingZeros8(bv)), kwLen, hits, marks); bad != "" {
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
// keyword count, and its mark bit. The guards are the range check and the
// compiler's bounds proof.
func hit(rec uint64, kwLen, hits []uint32, marks []uint64) (bad string) {
	if rec >= uint64(len(kwLen)) || rec >= uint64(len(hits)) || rec>>6 >= uint64(len(marks)) {
		return "index out of range"
	}
	if hits[rec] >= kwLen[rec] {
		return "a record is on more lists than its keyword count"
	}
	hits[rec]++
	marks[rec>>6] |= 1 << (rec & 63)
	return ""
}
