package data

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"spq/internal/geo"
	"spq/internal/text"
)

// writeSegment3 seals objs (single kind) as one in-memory SPQ3 segment.
func writeSegment3(t testing.TB, objs []Object, blockRecords int, dict *text.Dict) ([]byte, []BlockStats) {
	t.Helper()
	var buf bytes.Buffer
	cw := NewCol3Writer(&buf, objs[0].Kind, dict, blockRecords)
	for _, o := range objs {
		if err := cw.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cw.Stats()
}

func TestCol3SegmentRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	dict := text.NewDict()
	all := randObjects(r, 700)
	for _, kind := range []Kind{DataObject, FeatureObject} {
		for _, blockRecords := range []int{1, 7, 256, 100000} {
			objs := onlyKind(all, kind)
			raw, stats := writeSegment3(t, objs, blockRecords, dict)

			wantBlocks := (len(objs) + blockRecords - 1) / blockRecords
			if len(stats) != wantBlocks {
				t.Fatalf("%v/%d: %d blocks, want %d", kind, blockRecords, len(stats), wantBlocks)
			}
			var back []Object
			for i, bs := range stats {
				if bs.Offset < 5 || int(bs.Offset)+bs.Length > len(raw) {
					t.Fatalf("%v/%d: block %d frame (%d+%d) outside segment of %d bytes",
						kind, blockRecords, i, bs.Offset, bs.Length, len(raw))
				}
				b, err := DecodeColFrame(raw[bs.Offset : bs.Offset+int64(bs.Length)])
				if err != nil {
					t.Fatalf("%v/%d: block %d: %v", kind, blockRecords, i, err)
				}
				if b.Len() != bs.Records {
					t.Fatalf("%v/%d: block %d decoded %d records, zone map says %d",
						kind, blockRecords, i, b.Len(), bs.Records)
				}
				for j := 0; j < b.Len(); j++ {
					o := b.Object(j)
					if !bs.Bounds.Contains(o.Loc) {
						t.Fatalf("%v/%d: block %d object %d outside the zone-map bounds", kind, blockRecords, i, o.ID)
					}
					if kind == FeatureObject {
						for _, w := range dict.Words(o.Keywords) {
							if !bs.Keywords.MayContain(w) {
								t.Fatalf("%v/%d: block %d bloom misses keyword %q", kind, blockRecords, i, w)
							}
						}
					}
					back = append(back, o)
				}
			}
			if len(back) != len(objs) {
				t.Fatalf("%v/%d: %d objects back, want %d", kind, blockRecords, len(back), len(objs))
			}
			for i := range objs {
				if back[i].Kind != objs[i].Kind || back[i].ID != objs[i].ID || back[i].Loc != objs[i].Loc ||
					!reflect.DeepEqual(append(text.KeywordSet(nil), back[i].Keywords...), objs[i].Keywords) {
					t.Fatalf("%v/%d: object %d differs: %v vs %v", kind, blockRecords, i, back[i], objs[i])
				}
			}
		}
	}
}

// TestCol3SegmentSmaller pins the point of the format: on sorted,
// spatially clustered cells the SPQ3 encoding takes under two thirds of
// the raw columns (8-byte ids and coordinates, 4-byte keyword ids).
func TestCol3SegmentSmaller(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dict := text.NewDict()
	// A clustered cell: nearby coordinates, ascending ids, few distinct
	// keywords — the layout SealDFS produces for one grid cell.
	objs := make([]Object, 2000)
	for i := range objs {
		objs[i] = Object{
			Kind: FeatureObject,
			ID:   uint64(1<<40 + i*3),
			Loc:  geo.Point{X: 41.2 + r.Float64()*0.01, Y: 2.1 + r.Float64()*0.01},
			Keywords: text.NewKeywordSet(
				uint32(r.Intn(40)), uint32(40+r.Intn(40)), uint32(80+r.Intn(40))),
		}
	}
	rawColumns := len(objs) * (8 + 8 + 8 + 3*4)
	raw3, _ := writeSegment3(t, objs, 512, dict)
	if 3*len(raw3) >= 2*rawColumns {
		t.Fatalf("SPQ3 segment (%d bytes) not under two thirds of the raw columns (%d bytes)", len(raw3), rawColumns)
	}
}

// TestCol3SegmentRejectsCorruption flips, truncates, extends and misaligns
// frames; the decoder must return an error every time — never a panic,
// never objects.
func TestCol3SegmentRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dict := text.NewDict()
	objs := onlyKind(randObjects(r, 300), FeatureObject)
	raw, stats := writeSegment3(t, objs, 64, dict)
	bs := stats[1]
	frame := raw[bs.Offset : bs.Offset+int64(bs.Length)]

	if _, err := DecodeColFrame(frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := DecodeColFrame(frame[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(frame))
		}
	}
	for i := 0; i < len(frame); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			if _, err := DecodeColFrame(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
	if _, err := DecodeColFrame(append(append([]byte(nil), frame...), 0xAB)); err == nil {
		t.Fatal("frame with trailing garbage accepted")
	}
	if _, err := DecodeColFrame(raw[bs.Offset+3 : bs.Offset+3+int64(bs.Length)]); err == nil {
		t.Fatal("misaligned frame accepted")
	}
}

// kwParts are the parts of a keyword section as col3Payload writes them,
// each free to break an invariant the writer keeps. The zero value of a
// field takes the writer's choice: width 1, the dictionary's own bitmap or
// varints, the lists' own lengths and their total.
type kwParts struct {
	bitmap bool
	flags  int // the flags byte, when nonzero
	dict   []uint32
	bits   []byte // a bitmap-form dictionary's bytes, first = dict[0]
	kwLen  []uint32
	lens   []int
	post   int // postLen, when nonzero
	lists  [][]byte
}

// col3Payload assembles a block payload from explicit parts, bypassing
// every invariant the writer keeps: count records with ids 0..count-1 at
// the origin, and — for a feature block — the keyword section kw.
func col3Payload(kind byte, count int, kw kwParts) []byte {
	p := []byte{col3Version, kind}
	p = binary.AppendUvarint(p, uint64(count))
	for range count {
		p = append(p, 2) // zigzag +1
	}
	p = append(p, 0, 0, 0, 0) // two constant-zero coordinate columns
	if kind != colKindFeature {
		return p
	}
	flags := byte(1 << kwWidthShift)
	if kw.bitmap {
		flags |= kwFlagBitmap
	}
	if kw.flags != 0 {
		flags = byte(kw.flags)
	}
	w := max(int(flags>>kwWidthShift), 1)
	var lists []byte
	for _, l := range kw.lists {
		lists = append(lists, l...)
	}
	p = append(p, flags)
	p = binary.AppendUvarint(p, uint64(len(kw.dict)))
	post := len(lists)
	if kw.post != 0 {
		post = kw.post
	}
	p = binary.AppendUvarint(p, uint64(post))
	if kw.bitmap {
		bits := kw.bits
		if bits == nil {
			bits = make([]byte, (kw.dict[len(kw.dict)-1]-kw.dict[0])/8+1)
			for _, id := range kw.dict {
				bits[(id-kw.dict[0])/8] |= 1 << ((id - kw.dict[0]) % 8)
			}
		}
		p = binary.AppendUvarint(p, uint64(kw.dict[0]))
		p = binary.AppendUvarint(p, uint64(len(bits)))
		p = append(p, bits...)
	} else {
		prev := uint32(0)
		for _, id := range kw.dict {
			p = binary.AppendUvarint(p, uint64(id-prev))
			prev = id
		}
	}
	for _, n := range kw.kwLen {
		p = appendFixed(p, n, w)
	}
	for e, l := range kw.lists {
		n := len(l)
		if kw.lens != nil {
			n = kw.lens[e]
		}
		p = appendFixed(p, uint32(n), w)
	}
	return append(p, lists...)
}

// col3Frame frames a payload as the segment writer does, with a valid CRC.
func col3Frame(payload []byte) []byte {
	f := binary.AppendUvarint(nil, uint64(len(payload)))
	f = append(f, payload...)
	return binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
}

// hostileFrame is a frame the writer cannot produce, behind a valid CRC:
// fails names the first read step that must reject it — "decode"
// (DecodeColFrame), "hits" (CountHits with hostileQuery, the block's
// keywords) or "validate" (Validate) — and want a fragment of that step's
// error. The keyword header and the posting lists are read lazily, so a
// broken part decodes and fails only when it is read.
type hostileFrame struct {
	name, fails, want string
	frame             []byte
}

// hostileQuery is the query CountHits runs on a hostile frame: both
// keywords of its blocks.
var hostileQuery = []uint32{4, 9}

// hostileCol3Frames are feature blocks of 64 records (an 8-byte bitmap)
// with keyword 4 on every record and keyword 9 on the records of a second
// list, each broken in one way, plus a data block one record over the
// block limit.
func hostileCol3Frames() []hostileFrame {
	const n = 64
	ones := bytes.Repeat([]byte{0xFF}, 8)
	counts := func(on9 ...int) []uint32 {
		c := slices.Repeat([]uint32{1}, n)
		for _, i := range on9 {
			c[i]++
		}
		return c
	}
	parts := func(kwLen []uint32, list9 []byte) kwParts {
		return kwParts{dict: []uint32{4, 9}, kwLen: kwLen, lists: [][]byte{ones, list9}}
	}
	frame := func(kw kwParts) []byte { return col3Frame(col3Payload(colKindFeature, n, kw)) }
	with := func(kw kwParts, edit func(*kwParts)) kwParts {
		edit(&kw)
		return kw
	}
	valid := parts(counts(3, 7), []byte{3, 4})
	validBitmap := with(valid, func(kw *kwParts) { kw.bitmap = true })
	validPayload := col3Payload(colKindFeature, n, valid)
	bitmapPayload := col3Payload(colKindFeature, n, validBitmap)
	tail := append(bytes.Repeat([]byte{0xFF}, 7), 0x1F) // bit 60 of 60 records
	return []hostileFrame{
		{"valid", "", "", frame(valid)},
		{"valid, bitmap dictionary", "", "", frame(validBitmap)},
		{"4,097 records", "decode", "block limit", col3Frame(col3Payload(colKindData, colMaxBlockRecords+1, kwParts{}))},
		{"retired version 3", "decode", "version byte", col3Frame(append([]byte{'3'}, validPayload[1:]...))},
		{"retired version 4", "decode", "version byte", col3Frame(append([]byte{'4'}, validPayload[1:]...))},
		{"width 0", "decode", "width 0", frame(with(validBitmap, func(kw *kwParts) { kw.flags = kwFlagBitmap }))},
		{"width 3", "decode", "width 3", frame(with(valid, func(kw *kwParts) { kw.flags = 3 << kwWidthShift }))},
		{"unknown flag bit", "decode", "unknown keyword flags", frame(with(valid, func(kw *kwParts) { kw.flags = 1<<kwWidthShift | 0x10 }))},
		{"counts past the payload", "decode", "keyword counts need", frame(kwParts{dict: []uint32{4}})},
		// The columns, the flags byte, dictLen, postLen and first, then a
		// bitmap length of 200 bytes with none left.
		{"bitmap past the payload", "decode", "length past the payload", col3Frame(append(slices.Clone(bitmapPayload[:len(col3Payload(colKindData, n, kwParts{}))+4]), 200))},
		{"lists past the payload", "decode", "posting lists need", col3Frame(validPayload[:len(validPayload)-1])},
		{"trailing byte", "decode", "trailing bytes", col3Frame(append(validPayload[:len(validPayload):len(validPayload)], 0))},
		{"empty list", "hits", "is empty", frame(with(parts(counts(), nil), func(kw *kwParts) { kw.lens = []int{8, 0} }))},
		{"list longer than the bitmap", "hits", "more than a 8-byte bitmap", frame(parts(counts(3), append([]byte{3}, make([]byte, 8)...)))},
		{"lengths past the lists", "hits", "past the 10 bytes of lists", frame(with(valid, func(kw *kwParts) { kw.lens = []int{8, 3} }))},
		{"lengths short of the lists", "validate", "fill 9 of their 10 bytes", frame(with(parts(counts(3), []byte{3, 0}), func(kw *kwParts) { kw.lens = []int{8, 1} }))},
		{"bitmap past uint32", "hits", "past uint32", frame(kwParts{bitmap: true, dict: []uint32{math.MaxUint32 - 3, math.MaxUint32}, bits: []byte{0x01, 0x01}, kwLen: counts(), lists: [][]byte{ones, {3}}})},
		{"empty bitmap", "hits", "start and end on an entry", frame(with(validBitmap, func(kw *kwParts) { kw.bits = []byte{0} }))},
		{"bitmap of no bytes", "hits", "start and end on an entry", frame(with(validBitmap, func(kw *kwParts) { kw.bits = []byte{} }))},
		{"bitmap over its entries", "hits", "more than its 2 entries", frame(with(validBitmap, func(kw *kwParts) { kw.bits = []byte{0x25} }))},
		{"bitmap under its entries", "validate", "holds 2 entries, the block 3", frame(with(parts(counts(3, 7), []byte{3, 4}), func(kw *kwParts) {
			kw.bitmap, kw.dict, kw.bits, kw.lists = true, []uint32{4, 9, 10}, []byte{0x21}, [][]byte{ones, {3, 4}, {5}}
		}))},
		{"keyword count past the dictionary", "hits", "more keywords than the block holds", frame(parts(counts(3, 3, 3), []byte{3}))},
		{"varints not ascending", "hits", "not strictly ascending", frame(parts(counts(3), []byte{3, 0}))},
		{"varint index past the block", "hits", "index out of range", frame(parts(counts(3), []byte{64}))},
		{"varint delta past the block", "hits", "index out of range", frame(parts(counts(60), []byte{60, 4}))},
		{"varint cut inside the list", "hits", "truncated or overlong", frame(parts(counts(3), []byte{3, 0x80}))},
		{"bitmap tail bit set", "hits", "index out of range", col3Frame(col3Payload(colKindFeature, 60, kwParts{dict: []uint32{4}, kwLen: slices.Repeat([]uint32{1}, 60), lists: [][]byte{tail}}))},
		{"empty record bitmap", "hits", "empty bitmap", frame(parts(counts(), make([]byte, 8)))},
		{"on more lists than counted", "hits", "more lists than its keyword count", frame(parts(counts(), []byte{3}))},
		{"on fewer lists than counted", "validate", "its keyword count is", frame(parts(counts(3, 5), []byte{3}))},
	}
}

// TestCol3RejectsHostileFrames: a frame with a valid CRC but a broken
// structure fails at the step that reads the broken part, for the reason
// it is broken — the decoder for the columns and the bounds of the keyword
// section's parts, CountHits for the header entries and lists of a
// query's keywords and Validate for all of them — and never panics. A
// record count above the block limit is a decode error even when the rest
// is valid.
func TestCol3RejectsHostileFrames(t *testing.T) {
	for _, h := range hostileCol3Frames() {
		check := func(step string, err error) bool {
			t.Helper()
			switch {
			case step == h.fails && (err == nil || !strings.Contains(err.Error(), h.want)):
				t.Errorf("%s: %s err = %v, want one naming %q", h.name, step, err, h.want)
			case step != h.fails && err != nil:
				t.Errorf("%s: %s failed: %v", h.name, step, err)
			}
			return err == nil
		}
		b, err := DecodeColFrame(h.frame)
		if !check("decode", err) {
			continue
		}
		hits, marks := make([]uint32, b.Len()), make([]uint64, (b.Len()+63)/64)
		if err := b.CountHits(hostileQuery, hits, marks); !check("hits", err) {
			// Validate reads everything CountHits read.
			if b.Validate() == nil {
				t.Errorf("%s: Validate accepts a block CountHits rejects", h.name)
			}
			continue
		}
		check("validate", b.Validate())
	}
}

func TestAdaptiveBlockRecords(t *testing.T) {
	cases := []struct{ records, want int }{
		{0, 256}, {1, 256}, {1000, 256},
		{4000, 512}, {16000, 1024}, {40000, 2048},
		{250000, 4096}, {10_000_000, 4096},
	}
	for _, c := range cases {
		if got := AdaptiveBlockRecords(c.records); got != c.want {
			t.Errorf("AdaptiveBlockRecords(%d) = %d, want %d", c.records, got, c.want)
		}
	}
}

// TestPackXorColumn round-trips the coordinate bit-packer over its edge
// cases: zero columns, constant columns, NaN and infinity payloads, full
// 64-bit windows, and widths past the accumulator's 57-bit fast path.
func TestPackXorColumn(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	wide := make([]float64, 100)
	for i := range wide {
		wide[i] = math.Float64frombits(r.Uint64())
	}
	cases := map[string][]float64{
		"zero":     {0, 0, 0, 0},
		"constant": {3.25, 3.25, 3.25},
		"single":   {-12.5},
		"negzero":  {0, math.Copysign(0, -1), 0},
		"nan-inf":  {math.NaN(), math.Inf(1), math.Inf(-1), 0},
		"narrow":   {100.0, 100.25, 100.5, 100.125, 100.375},
		"full":     wide,
	}
	// Every count x width around the point where the 9-byte load window
	// reaches the end of the packed bytes.
	for _, width := range []uint{1, 3, 7, 8, 9, 13, 31, 57, 63, 64} {
		for count := 1; count <= 24; count++ {
			vals := make([]float64, count)
			acc := uint64(0)
			for i := range vals {
				acc ^= r.Uint64()>>(64-width) | 1<<(width-1)
				vals[i] = math.Float64frombits(acc)
			}
			cases[fmt.Sprintf("w%d-n%d", width, count)] = vals
		}
	}
	for name, vals := range cases {
		var buf bytes.Buffer
		bitsIn := make([]uint64, len(vals))
		for i, v := range vals {
			bitsIn[i] = math.Float64bits(v)
		}
		packXorColumn(&buf, bitsIn)
		// The column is read in place, so the bytes that follow it in a
		// payload must neither be consumed nor leak into the last values.
		buf.Write([]byte{0xFF, 0xFF, 0xFF})
		out := make([]float64, len(vals))
		rest, err := unpackXorColumn(buf.Bytes(), out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rest) != 3 {
			t.Fatalf("%s: %d bytes left over, want the 3 that follow the column", name, len(rest))
		}
		for i := range vals {
			if math.Float64bits(out[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("%s: value %d: got %x, want %x", name, i,
					math.Float64bits(out[i]), math.Float64bits(vals[i]))
			}
		}
	}
}

// TestCol3PostingMethods exercises both posting encodings in one block and
// the byte-size rule that picks between them: a list is stored as delta
// varints only when they take strictly fewer bytes than the record bitmap.
// A keyword on every record (bitmap), keywords on a single record
// (varints), and lists one either side of the tie all decode back to
// identical keyword sets.
func TestCol3PostingMethods(t *testing.T) {
	dict := text.NewDict()
	objs := make([]Object, 64) // an 8-byte bitmap
	for i := range objs {
		kws := []uint32{7} // dense: present on all 64 records
		if i%16 == 0 {
			kws = append(kws, uint32(100+i)) // sparse: one record each
		}
		if i%8 == 0 {
			kws = append(kws, 50) // 8 one-byte varints: the tie, a bitmap
		}
		if i%9 == 0 && i > 0 {
			kws = append(kws, 51) // 7 one-byte varints: one byte under
		}
		objs[i] = Object{
			Kind:     FeatureObject,
			ID:       uint64(i),
			Loc:      geo.Point{X: float64(i), Y: -float64(i)},
			Keywords: text.NewKeywordSet(kws...),
		}
	}
	raw, stats := writeSegment3(t, objs, 0, dict)
	if len(stats) != 1 {
		t.Fatalf("%d blocks, want 1", len(stats))
	}
	b, err := DecodeColFrame(raw[stats[0].Offset : stats[0].Offset+int64(stats[0].Length)])
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range objs {
		got := b.Object(i)
		if !got.Keywords.Equal(want.Keywords) {
			t.Fatalf("record %d keywords: got %v, want %v", i, got.Keywords, want.Keywords)
		}
	}
	const bitmapBytes = 8
	forms := map[string]int{}
	for _, kw := range blockDict(t, b) {
		var varints []byte
		prev := 0
		for i, o := range objs {
			if o.Keywords.Contains(kw) {
				varints = binary.AppendUvarint(varints, uint64(i-prev))
				prev = i
			}
		}
		want, form := bitmapBytes, "bitmap"
		if len(varints) < bitmapBytes {
			want, form = len(varints), "varints"
		}
		list, err := b.Posting(kw)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(list); got != want {
			t.Fatalf("keyword %d: %d varint bytes against an %d-byte bitmap stored in %d bytes, want %d (%s)",
				kw, len(varints), bitmapBytes, got, want, form)
		}
		if form == "varints" && !bytes.Equal(list, varints) {
			t.Fatalf("keyword %d: varint list %x, want %x", kw, list, varints)
		}
		forms[form]++
	}
	if forms["bitmap"] != 2 || forms["varints"] != 5 {
		t.Fatalf("lists by form %v, want 2 bitmaps (the dense list and the tie) and 5 varint lists", forms)
	}
}

// blockDict returns the dictionary of a feature block, the whole keyword
// section validated.
func blockDict(t testing.TB, b *ColumnBlock) []uint32 {
	t.Helper()
	ids, err := b.kw.ids()
	if err == nil {
		err = b.kw.eachList(ids, (b.Len()+7)/8, func(int, uint32, []byte) error { return nil })
	}
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// requireSameBlock fails unless two blocks hold equal columns: kind, ids,
// coordinates by bit pattern, and the encoded keyword section.
func requireSameBlock(t *testing.T, got, want *ColumnBlock) {
	t.Helper()
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for _, c := range []struct {
		name  string
		equal bool
	}{
		{"Kind", got.Kind == want.Kind},
		{"IDs", slices.Equal(got.IDs, want.IDs)},
		{"Xs", sameBits(got.Xs, want.Xs)},
		{"Ys", sameBits(got.Ys, want.Ys)},
		{"keyword section", bytes.Equal(got.kw.enc, want.kw.enc)},
		{"decoded dictionary", slices.Equal(got.kw.dict, want.kw.dict)},
	} {
		if !c.equal {
			t.Fatalf("column %s differs", c.name)
		}
	}
}

// requireSameZoneMap fails unless two zone maps agree on what the planner
// reads: record count, bounds by bit pattern, keyword bloom.
func requireSameZoneMap(t *testing.T, got, want BlockStats) {
	t.Helper()
	bits := func(r geo.Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.MinX), math.Float64bits(r.MinY), math.Float64bits(r.MaxX), math.Float64bits(r.MaxY)}
	}
	if got.Records != want.Records || bits(got.Bounds) != bits(want.Bounds) || !bytes.Equal(got.Keywords, want.Keywords) {
		t.Fatalf("zone map %d records %v differs from %d records %v (or its bloom does)",
			got.Records, got.Bounds, want.Records, want.Bounds)
	}
}

// checkBuiltMatchesDecoded builds objs as one block and requires it equal
// to the block DecodeColFrame reads back from the segment writer's frame,
// column by column, with the writer's zone map.
func checkBuiltMatchesDecoded(t *testing.T, objs []Object, dict *text.Dict) {
	t.Helper()
	raw, stats := writeSegment3(t, objs, len(objs), dict)
	if len(stats) != 1 {
		t.Fatalf("%d blocks, want 1", len(stats))
	}
	dec, err := DecodeColFrame(raw[stats[0].Offset : stats[0].Offset+int64(stats[0].Length)])
	if err != nil {
		t.Fatal(err)
	}
	built, zone := BuildBlock(objs, dict)
	requireSameBlock(t, built, dec)
	requireSameZoneMap(t, zone, stats[0])
}

// TestBuiltBlockMatchesDecodedDense is the builder == decoder case at the
// largest block size: 4,096 feature records mixing bitmap-dense postings
// (a keyword on every other record), sparse ones, and empty keyword sets.
func TestBuiltBlockMatchesDecodedDense(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	dict := text.NewDict()
	for i := 0; i < 64; i++ {
		dict.Intern(fmt.Sprintf("w%d", i))
	}
	objs := make([]Object, colMaxBlockRecords)
	for i := range objs {
		var kws []uint32
		switch {
		case i%5 == 0: // no keywords at all
		case i%2 == 0:
			kws = []uint32{3, uint32(8 + r.Intn(56))}
		default:
			kws = []uint32{uint32(8 + r.Intn(56))}
		}
		objs[i] = Object{Kind: FeatureObject, ID: uint64(i * 7), Loc: geo.Point{X: r.Float64(), Y: r.Float64()}, Keywords: text.NewKeywordSet(kws...)}
	}
	checkBuiltMatchesDecoded(t, objs, dict)
}

// FuzzCol3BlockRoundTrip drives the SPQ3 encoder with fuzzer-chosen
// objects and checks encode -> frame -> decode is the identity, that the
// block built from the same objects equals the decoded one, and that
// CountHits over the whole dictionary counts every keyword. The seeds
// cover both dictionary forms and both widths: the interned ids are
// dense, so a few distinct keywords store varints and many a bitmap, and
// more than 255 keywords on a record take 2-byte columns.
func FuzzCol3BlockRoundTrip(f *testing.F) {
	f.Add(uint64(7), 0.25, -3.5, "alpha,beta", true)
	f.Add(uint64(1<<63), -1e300, 1e-300, "", false)
	f.Add(uint64(0), 0.0, 0.0, strings.Repeat("k,", 40), true)
	f.Add(uint64(42), math.Inf(1), math.NaN(), "dense", true)
	var many []string
	for i := range 300 {
		many = append(many, fmt.Sprintf("w%d", i))
	}
	f.Add(uint64(9), 1.0, 2.0, strings.Join(many[:40], ","), true)
	f.Add(uint64(9), 1.0, 2.0, strings.Join(many, ","), true)
	f.Fuzz(func(t *testing.T, id uint64, x, y float64, kws string, feature bool) {
		dict := text.NewDict()
		kind := DataObject
		var set text.KeywordSet
		if feature {
			kind = FeatureObject
			if kws != "" {
				set = dict.InternAll(strings.Split(kws, ","))
			}
		}
		objs := []Object{
			{Kind: kind, ID: id, Loc: geo.Point{X: x, Y: y}, Keywords: set},
			{Kind: kind, ID: id / 2, Loc: geo.Point{X: y, Y: x}},
			{Kind: kind, ID: id/2 + 1, Loc: geo.Point{X: x / 2, Y: y * 2}, Keywords: set},
		}
		var buf bytes.Buffer
		cw := NewCol3Writer(&buf, kind, dict, 0)
		for _, o := range objs {
			if err := cw.Append(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		stats := cw.Stats()
		if len(stats) != 1 {
			t.Fatalf("%d blocks, want 1", len(stats))
		}
		bs := stats[0]
		b, err := DecodeColFrame(buf.Bytes()[bs.Offset : bs.Offset+int64(bs.Length)])
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if b.Len() != len(objs) {
			t.Fatalf("decoded %d records, want %d", b.Len(), len(objs))
		}
		for i, want := range objs {
			got := b.Object(i)
			if got.Kind != want.Kind || got.ID != want.ID ||
				!sameFloat(got.Loc.X, want.Loc.X) || !sameFloat(got.Loc.Y, want.Loc.Y) ||
				!got.Keywords.Equal(want.Keywords) {
				t.Fatalf("record %d: got %v, want %v", i, got, want)
			}
		}
		if feature {
			hits, marks := make([]uint32, b.Len()), make([]uint64, 1)
			if err := b.CountHits(blockDict(t, b), hits, marks); err != nil {
				t.Fatal(err)
			}
			for i, want := range objs {
				if int(hits[i]) != want.Keywords.Len() || b.KwLen(i) != hits[i] {
					t.Fatalf("record %d: %d hits and KwLen %d over the whole dictionary, want %d", i, hits[i], b.KwLen(i), want.Keywords.Len())
				}
			}
		}
		checkBuiltMatchesDecoded(t, objs, dict)
	})
}

// TestCountHits: resolving a query's keywords through a decoded feature
// block's dictionary and posting lists must give every record exactly
// |f.W ∩ q.W| — zero on the records the Map-phase prune drops — and KwLen
// must be |f.W|, for single lists, unions, misses and mixed queries.
func TestCountHits(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	dict := text.NewDict()
	objs := onlyKind(randObjects(r, 400), FeatureObject)
	raw, stats := writeSegment3(t, objs, 128, dict)
	for bi, bs := range stats {
		b, err := DecodeColFrame(raw[bs.Offset : bs.Offset+int64(bs.Length)])
		if err != nil {
			t.Fatal(err)
		}
		dict := blockDict(t, b)
		queries := [][]uint32{
			{dict[0]},                         // single posting list
			{dict[0], dict[len(dict)/2]},      // union of two
			{1 << 30},                         // out of vocabulary
			{0, dict[len(dict)-1], 1<<31 - 1}, // mixed hits and misses
			dict,                              // every keyword: hits = |f.W|
		}
		for qi, kws := range queries {
			hits := make([]uint32, b.Len())
			marks := make([]uint64, (b.Len()+63)/64)
			if err := b.CountHits(kws, hits, marks); err != nil {
				t.Fatalf("block %d query %d: %v", bi, qi, err)
			}
			for i := range hits {
				o := b.Object(i)
				if want := o.Keywords.IntersectionSize(text.KeywordSet(kws)); int(hits[i]) != want {
					t.Fatalf("block %d query %d record %d: %d hits, want %d", bi, qi, i, hits[i], want)
				}
				if marked := marks[i>>6]>>(i&63)&1 == 1; marked != (hits[i] > 0) {
					t.Fatalf("block %d query %d record %d: marked=%v with %d hits", bi, qi, i, marked, hits[i])
				}
				if int(b.KwLen(i)) != o.Keywords.Len() {
					t.Fatalf("block %d record %d: KwLen %d, want %d", bi, i, b.KwLen(i), o.Keywords.Len())
				}
			}
		}
	}
}

// TestDecodedBlockColumnsExact: every column a decoded block retains has
// cap == len, and a feature block's keyword section aliases the frame it
// was decoded from, so MemBytes — which charges column lengths plus that
// frame — is what the segment cache actually pins, and a cache filled with
// feature blocks stays within its budget measured by capacity.
func TestDecodedBlockColumnsExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	dict := text.NewDict()
	pins := map[*ColumnBlock]int{} // bytes held, by capacity
	var blocks []*ColumnBlock
	for _, kind := range []Kind{DataObject, FeatureObject} {
		for _, blockRecords := range []int{700, 300, 64, 5} {
			raw, stats := writeSegment3(t, onlyKind(randObjects(r, 1400), kind), blockRecords, dict)
			for _, bs := range stats {
				// A private frame, as RangeReader.ReadRange returns one.
				frame := bytes.Clone(raw[bs.Offset : bs.Offset+int64(bs.Length)])
				b, err := DecodeColFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				held := columnBlockOverhead +
					8*cap(b.IDs) + 8*cap(b.Xs) + 8*cap(b.Ys) + 4*cap(b.kw.dict)
				if kind == FeatureObject {
					if enc := b.kw.enc; len(enc) == 0 || &enc[len(enc)-1] != &frame[len(frame)-5] {
						t.Fatalf("feature block of %d records: the keyword section does not alias the frame's last payload bytes", b.Len())
					}
					held += cap(frame)
				} else if b.kw.enc != nil {
					t.Fatalf("data block of %d records retains %d keyword bytes", b.Len(), len(b.kw.enc))
				}
				if held != b.MemBytes() {
					t.Fatalf("%v block of %d records holds %d bytes by capacity, MemBytes reports %d",
						kind, b.Len(), held, b.MemBytes())
				}
				pins[b] = held
				blocks = append(blocks, b)
			}
		}
	}
	const budget = 64 << 10
	cache := NewBlockCache(budget)
	for i, b := range blocks {
		cache.Put(BlockKey{Gen: 1, File: "f", Index: i}, b)
		pinned := 0
		for j := 0; j <= i; j++ {
			if cb, ok := cache.entries[BlockKey{Gen: 1, File: "f", Index: j}]; ok {
				pinned += pins[cb.Value.(*blockEntry).block]
			}
		}
		if pinned > budget {
			t.Fatalf("after %d puts the cache pins %d bytes by capacity, budget %d", i+1, pinned, budget)
		}
	}
	if st := cache.Stats(); st.Entries < 2 || st.Entries == len(blocks) {
		t.Fatalf("cache holds %d of %d blocks: the budget was never exercised", st.Entries, len(blocks))
	}
}

// TestDecodeFeatureBlockAllocs pins the feature-block open at a constant
// allocation count, whatever the number of records and posting entries:
// the block and its id, x and y columns for a bitmap-form dictionary, which
// is read in place like the counts, the lengths and the lists; one more,
// the decoded ids, for a varint-form one.
func TestDecodeFeatureBlockAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	dict := text.NewDict()
	for _, spread := range []uint32{1, 5000} {
		for _, n := range []int{50, 500, 4000} {
			objs := onlyKind(randObjects(r, 3*n+100), FeatureObject)[:n:n]
			for i, o := range objs {
				kws := make([]uint32, len(o.Keywords))
				for j, kw := range o.Keywords {
					kws[j] = spread * kw
				}
				objs[i].Keywords = kws
			}
			raw, stats := writeSegment3(t, objs, n, dict)
			frame := raw[stats[0].Offset : stats[0].Offset+int64(stats[0].Length)]
			b, err := DecodeColFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			want := 4.0
			if !b.kw.bitmap {
				want = 5
			}
			if b.kw.bitmap != (spread == 1) {
				t.Fatalf("spread %d, %d records: bitmap dictionary %v", spread, n, b.kw.bitmap)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := DecodeColFrame(frame); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > want {
				t.Errorf("opening a %d-record feature block (bitmap dictionary %v) made %.0f allocations, want at most %.0f",
					n, b.kw.bitmap, allocs, want)
			}
		}
	}
}

// TestForwardViewConcurrent: Object builds the forward keyword view on
// first use; concurrent first callers on one shared (cached) block must
// all see the same, correct keyword sets. Run under -race.
func TestForwardViewConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	dict := text.NewDict()
	objs := onlyKind(randObjects(r, 600), FeatureObject)
	raw, stats := writeSegment3(t, objs, 0, dict)
	b, err := DecodeColFrame(raw[stats[0].Offset : stats[0].Offset+int64(stats[0].Length)])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < b.Len(); n++ {
				i := (n + g*37) % b.Len()
				if got := b.Object(i); !got.Keywords.Equal(objs[i].Keywords) {
					t.Errorf("goroutine %d record %d: keywords %v, want %v", g, i, got.Keywords, objs[i].Keywords)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
