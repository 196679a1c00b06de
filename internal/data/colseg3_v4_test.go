package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spq/internal/geo"
	"spq/internal/text"
)

// The retired version '4' keyword section, kept as a test-local reference:
// a delta-varint dictionary, then each record's keyword count and each
// list's byte length as varints, then the lists — the layout whose header
// a reader decoded whole. The differential test below encodes the same
// records in both versions and requires the current reader, which never
// decodes the header, to answer every read exactly as the reference does.

// v4Frame encodes a built block's records as a framed version-'4' payload.
func v4Frame(b *ColumnBlock, objs []Object) []byte {
	var buf bytes.Buffer
	encodeCol3Block(&buf, &ColumnBlock{Kind: b.Kind, IDs: b.IDs, Xs: b.Xs, Ys: b.Ys})
	payload := buf.Bytes()
	payload[0] = '4'
	if b.Kind == FeatureObject {
		payload = append(payload, v4Keywords(objs)...)
	}
	return col3Frame(payload)
}

// v4Keywords is the version-'4' encoder of a feature block's keywords.
func v4Keywords(objs []Object) []byte {
	var dict []uint32
	for _, o := range objs {
		dict = append(dict, o.Keywords...)
	}
	slices.Sort(dict)
	dict = slices.Compact(dict)
	bitmapBytes := (len(objs) + 7) / 8
	var p, post []byte
	p = binary.AppendUvarint(p, uint64(len(dict)))
	prev := uint32(0)
	for _, kw := range dict {
		p = binary.AppendUvarint(p, uint64(kw-prev))
		prev = kw
	}
	for _, o := range objs {
		p = binary.AppendUvarint(p, uint64(len(o.Keywords)))
	}
	for _, kw := range dict {
		var recs []uint32
		for i, o := range objs {
			if o.Keywords.Contains(kw) {
				recs = append(recs, uint32(i))
			}
		}
		n := min(varintListSize(recs), bitmapBytes)
		p = binary.AppendUvarint(p, uint64(n))
		post = appendPosting(post, recs, n < bitmapBytes, bitmapBytes)
	}
	return append(p, post...)
}

// v4Block is a block read by the reference: the version-'4' keyword
// header decoded whole, and the lists as stored.
type v4Block struct {
	n     int
	kwLen []uint32
	dict  []uint32
	lists [][]byte
}

// decodeV4 is the version-'4' reader of a framed feature block, reduced to
// what the reference needs: the keyword section after the columns, every
// header field checked as the retired decoder checked it.
func decodeV4(frame []byte) (*v4Block, error) {
	length, rest, ok := uvarint(frame)
	if !ok || length+4 != uint64(len(rest)) {
		return nil, fmt.Errorf("bad frame")
	}
	payload := rest[:length]
	if payload[0] != '4' || payload[1] != colKindFeature {
		return nil, fmt.Errorf("not a version-4 feature block")
	}
	count, p, _ := uvarint(payload[2:])
	b := &v4Block{n: int(count)}
	for range b.n {
		if _, p, ok = uvarint(p); !ok {
			return nil, fmt.Errorf("bad id")
		}
	}
	var err error
	col := make([]float64, b.n)
	if p, err = unpackXorColumn(p, col); err != nil {
		return nil, err
	}
	if p, err = unpackXorColumn(p, col); err != nil {
		return nil, err
	}
	size, p, ok := uvarint(p)
	if !ok {
		return nil, fmt.Errorf("bad dictionary length")
	}
	kw := uint64(0)
	for i := range size {
		var v uint64
		if v, p, ok = uvarint(p); !ok || (i > 0 && v == 0) || kw+v > math.MaxUint32 {
			return nil, fmt.Errorf("bad dictionary entry %d", i)
		}
		kw += v
		b.dict = append(b.dict, uint32(kw))
	}
	for i := range b.n {
		var v uint64
		if v, p, ok = uvarint(p); !ok || v > size {
			return nil, fmt.Errorf("bad keyword count %d", i)
		}
		b.kwLen = append(b.kwLen, uint32(v))
	}
	lens := make([]int, size)
	total := 0
	for e := range lens {
		var v uint64
		if v, p, ok = uvarint(p); !ok || v == 0 || v > uint64(b.n+7)/8 {
			return nil, fmt.Errorf("bad list length %d", e)
		}
		lens[e] = int(v)
		total += lens[e]
	}
	if total != len(p) {
		return nil, fmt.Errorf("lists take %d bytes, %d left", total, len(p))
	}
	for _, n := range lens {
		b.lists, p = append(b.lists, p[:n]), p[n:]
	}
	return b, nil
}

// sets decodes every list of the reference block, one record index at a
// time, into each record's keyword set, checking each list as the format
// requires and each record's set against its count.
func (b *v4Block) sets() ([]text.KeywordSet, error) {
	sets := make([]text.KeywordSet, b.n)
	bitmapBytes := (b.n + 7) / 8
	for e, list := range b.lists {
		var recs []int
		if len(list) == bitmapBytes {
			for i := range 8 * len(list) {
				if list[i/8]>>(i%8)&1 == 1 {
					recs = append(recs, i)
				}
			}
		} else {
			rec := 0
			for p := list; len(p) > 0; {
				d, rest, ok := uvarint(p)
				if !ok || (len(recs) > 0 && d == 0) {
					return nil, fmt.Errorf("list %d: bad delta", e)
				}
				if len(recs) == 0 {
					rec = int(d)
				} else {
					rec += int(d)
				}
				recs, p = append(recs, rec), rest
			}
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("list %d is empty", e)
		}
		for _, r := range recs {
			if r >= b.n {
				return nil, fmt.Errorf("list %d: record %d out of range", e, r)
			}
			sets[r] = append(sets[r], b.dict[e])
		}
	}
	for i, s := range sets {
		if len(s) != int(b.kwLen[i]) {
			return nil, fmt.Errorf("record %d: on %d lists, counts %d", i, len(s), b.kwLen[i])
		}
	}
	return sets, nil
}

// refBlock is one block of the differential test: the form and width the
// writer must pick for it, and its records.
type refBlock struct {
	name   string
	bitmap bool
	width  int
	objs   []Object
}

// refBlocks draws feature blocks covering both dictionary forms and both
// widths the writer uses: a dense vocabulary (a bitmap dictionary) or ids
// spread far apart (varints), and short keyword sets and lists (1-byte
// columns) or a record with more than 255 keywords (2-byte columns).
func refBlocks(r *rand.Rand) []refBlock {
	var out []refBlock
	for _, bitmap := range []bool{true, false} {
		for _, width := range []int{1, 2} {
			for _, n := range []int{1, 7, 64, 300, 1000} {
				spread := uint32(1)
				if !bitmap {
					spread = 5000
				}
				const vocab = 64
				objs := make([]Object, n)
				for i := range objs {
					var ids []uint32
					for range r.Intn(12) {
						ids = append(ids, spread*uint32(r.Intn(vocab)))
					}
					if i == n/2 {
						// Half the vocabulary and both its ends, or 300
						// keywords: a dictionary dense enough for a bitmap
						// when spread is 1.
						top := uint32(vocab)
						if width == 2 {
							top = 300
						}
						for k := uint32(0); k < top; k += 2 {
							ids = append(ids, spread*k)
						}
						ids = append(ids, spread*(vocab-1))
						if width == 2 {
							for k := uint32(1); k < top; k += 2 {
								ids = append(ids, spread*k)
							}
						}
					}
					objs[i] = Object{Kind: FeatureObject, ID: uint64(10 * i), Loc: geo.Point{X: r.Float64(), Y: r.Float64()}, Keywords: text.NewKeywordSet(ids...)}
				}
				out = append(out, refBlock{fmt.Sprintf("bitmap=%v/w%d/n%d", bitmap, width, n), bitmap, width, objs})
			}
		}
	}
	return out
}

// TestCol3MatchesV4Reference: over random blocks in both dictionary forms
// and both widths, the block read in place — decoded from its frame and
// as built — answers every read as the version-'4' reference, which
// decodes the header whole, answers it: CountHits over the whole
// dictionary, a random half of it and ids it lacks, each record's keyword
// count, Validate, and AppendObjects.
func TestCol3MatchesV4Reference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, rb := range refBlocks(r) {
		built, _ := BuildBlock(rb.objs, nil)
		if built.kw.bitmap != rb.bitmap || built.kw.w != rb.width {
			t.Fatalf("%s: the writer picked bitmap=%v width %d", rb.name, built.kw.bitmap, built.kw.w)
		}
		ref, err := decodeV4(v4Frame(built, rb.objs))
		if err != nil {
			t.Fatalf("%s: reference: %v", rb.name, err)
		}
		sets, err := ref.sets()
		if err != nil {
			t.Fatalf("%s: reference: %v", rb.name, err)
		}
		var buf bytes.Buffer
		encodeCol3Block(&buf, built)
		dec, err := DecodeColFrame(col3Frame(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", rb.name, err)
		}
		var half []uint32
		for _, kw := range ref.dict {
			if r.Intn(2) == 0 {
				half = append(half, kw)
			}
		}
		queries := [][]uint32{ref.dict, half, {1, 2, 3}, {ref.dict[len(ref.dict)-1] + 1}}
		for _, b := range []*ColumnBlock{built, dec} {
			if err := b.Validate(); err != nil {
				t.Fatalf("%s: Validate: %v", rb.name, err)
			}
			for _, q := range queries {
				hits, marks := make([]uint32, b.Len()), make([]uint64, (b.Len()+63)/64)
				if err := b.CountHits(q, hits, marks); err != nil {
					t.Fatalf("%s: CountHits: %v", rb.name, err)
				}
				for i := range hits {
					if want := sets[i].IntersectionSize(text.KeywordSet(q)); int(hits[i]) != want {
						t.Fatalf("%s: record %d: %d hits, reference %d", rb.name, i, hits[i], want)
					}
					if marked := marks[i>>6]>>(i&63)&1 == 1; marked != (hits[i] > 0) {
						t.Fatalf("%s: record %d: marked=%v with %d hits", rb.name, i, marked, hits[i])
					}
				}
			}
			objs := b.AppendObjects(nil)
			for i := range objs {
				if b.KwLen(i) != ref.kwLen[i] {
					t.Fatalf("%s: record %d: KwLen %d, reference %d", rb.name, i, b.KwLen(i), ref.kwLen[i])
				}
				if !objs[i].Keywords.Equal(sets[i]) || objs[i].ID != rb.objs[i].ID {
					t.Fatalf("%s: record %d: %v, reference keywords %v", rb.name, i, objs[i], sets[i])
				}
			}
		}
	}
}

// TestV4FrameRejected: a version-'4' frame, CRC intact, is an unknown
// version to the current reader.
func TestV4FrameRejected(t *testing.T) {
	objs := refBlocks(rand.New(rand.NewSource(47)))[0].objs
	built, _ := BuildBlock(objs, nil)
	if _, err := DecodeColFrame(v4Frame(built, objs)); err == nil || !bytes.Contains([]byte(err.Error()), []byte("version byte")) {
		t.Fatalf("version-4 frame: err = %v, want an unknown-version error", err)
	}
}
