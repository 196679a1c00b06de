package data

import (
	"encoding/binary"
	"math/bits"
)

// Decode kernels of the SPQ3 keyword section: the varint reader and the
// two posting-list parsers. A cold scan spends most of its map phase
// here — one call per stored posting entry — so the loops consume their
// input from the head of a slice (p = p[1:] behind a length test) and
// validate every record index against the length of the column it is
// about to write. That validation is the decoder's safety check and the
// compiler's bounds proof at once: the CI pipeline builds this package
// with -gcflags=-d=ssa/check_bce and fails if a bounds check appears in
// this file.

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

// sparsePosting parses a delta-varint posting list of n record indexes
// from the head of p: the first index raw, then strictly ascending deltas,
// every index below len(kwLen). Each index is appended to recs and bumps
// its record's keyword count. bad names the violated invariant, empty on
// success.
func sparsePosting(p []byte, n int, kwLen, recs []uint32) (rest []byte, out []uint32, bad string) {
	limit := uint64(len(kwLen))
	var rec uint64
	for j := 0; j < n; j++ {
		// One-byte deltas are nearly all of them; taking that case here
		// rather than through uvarint is about 15% of a block's decode.
		var d uint64
		if len(p) > 0 && p[0] < 0x80 {
			d, p = uint64(p[0]), p[1:]
		} else {
			var ok bool
			if d, p, ok = uvarint(p); !ok {
				return p, recs, "truncated or overlong index"
			}
		}
		// A delta at or past the record count cannot land in range, and
		// refusing it here keeps rec+d from wrapping around.
		if d >= limit {
			return p, recs, "index out of range"
		}
		if j > 0 && d == 0 {
			return p, recs, "not strictly ascending"
		}
		if j == 0 {
			rec = d
		} else {
			rec += d
		}
		if rec >= uint64(len(kwLen)) {
			return p, recs, "index out of range"
		}
		kwLen[rec]++
		recs = append(recs, uint32(rec))
	}
	return p, recs, ""
}

// bitmapPosting expands a record bitmap (bit i set = record i carries the
// keyword) into ascending record indexes appended to recs, bumping each
// record's keyword count. ok is false when a bit is set at or beyond
// len(kwLen), the tail-bits check.
func bitmapPosting(bm []byte, kwLen, recs []uint32) (out []uint32, ok bool) {
	base := uint(0)
	for len(bm) >= 8 {
		w := binary.LittleEndian.Uint64(bm)
		bm = bm[8:]
		for ; w != 0; w &= w - 1 {
			rec := base + uint(bits.TrailingZeros64(w))
			if rec >= uint(len(kwLen)) {
				return recs, false
			}
			kwLen[rec]++
			recs = append(recs, uint32(rec))
		}
		base += 64
	}
	for _, bv := range bm {
		for ; bv != 0; bv &= bv - 1 {
			rec := base + uint(bits.TrailingZeros8(bv))
			if rec >= uint(len(kwLen)) {
				return recs, false
			}
			kwLen[rec]++
			recs = append(recs, uint32(rec))
		}
		base += 8
	}
	return recs, true
}

// addHits adds one to hits[rec] and sets bit rec of marks for every record
// index of a posting list. Decoded lists only hold indexes below the
// block's record count, which hits and marks are sized for; the guards
// restate that for the compiler.
func addHits(hits []uint32, marks []uint64, recs []uint32) {
	for _, rec := range recs {
		if w := rec >> 6; int(rec) < len(hits) && int(w) < len(marks) {
			hits[rec]++
			marks[w] |= 1 << (rec & 63)
		}
	}
}
