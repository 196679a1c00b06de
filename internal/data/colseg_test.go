package data

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/text"
)

func randObjects(r *rand.Rand, n int) []Object {
	objs := make([]Object, n)
	for i := range objs {
		o := Object{ID: uint64(i), Loc: geo.Point{X: r.Float64(), Y: r.Float64()}}
		if r.Intn(2) == 1 {
			o.Kind = FeatureObject
			ids := make([]uint32, 1+r.Intn(10))
			for j := range ids {
				ids[j] = uint32(r.Intn(500))
			}
			o.Keywords = text.NewKeywordSet(ids...)
		}
		objs[i] = o
	}
	return objs
}

func onlyKind(objs []Object, k Kind) []Object {
	var out []Object
	for _, o := range objs {
		if o.Kind == k {
			out = append(out, o)
		}
	}
	return out
}

func TestColWriterRejectsMixedKinds(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCol3Writer(&buf, DataObject, nil, 0)
	if err := cw.Append(Object{Kind: DataObject, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Append(Object{Kind: FeatureObject, ID: 2}); err == nil {
		t.Fatal("feature accepted by a data segment")
	}
}

// TestColInputCacheSharing checks the decoded-segment cache: a second read
// of the same generation serves every block from cache, and a different
// generation misses.
func TestColInputCacheSharing(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dict := text.NewDict()
	objs := randObjects(r, 500)
	g := grid.NewSquare(3)
	fs := dfs.New(dfs.Config{NumNodes: 4})
	man, err := PartitionObjects(g, objs).SealDFS(fs, "c", dict)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewBlockCache(1 << 20)
	drain := func(gen uint64) int {
		in := NewColInput(fs, allBlocks(man), cache, gen)
		n := 0
		if err := eachSourceObject(in, func(Object) { n++ }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := drain(1); n != len(objs) {
		t.Fatalf("read %d objects, want %d", n, len(objs))
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses == 0 || st.Entries != int(st.Misses) {
		t.Fatalf("cold read stats: %+v", st)
	}
	cold := st.Misses
	if n := drain(1); n != len(objs) {
		t.Fatalf("cached read lost objects: %d", n)
	}
	st = cache.Stats()
	if st.Hits != cold || st.Misses != cold {
		t.Fatalf("warm read stats: %+v, want %d hits", st, cold)
	}
	// A generation bump makes every entry unreachable: all misses again.
	drain(2)
	st = cache.Stats()
	if st.Misses != 2*cold {
		t.Fatalf("new generation did not miss: %+v", st)
	}
}

// allBlocks is the unpruned selection over a manifest: every cell, every
// block.
func allBlocks(m *Manifest) []ColSel {
	return append(SelectAll(m.Data), SelectAll(m.Features)...)
}

// TestColInputLRUEviction bounds the cache by decoded bytes.
func TestColInputLRUEviction(t *testing.T) {
	blk := &ColumnBlock{Kind: DataObject, IDs: []uint64{1}, Xs: []float64{0}, Ys: []float64{0}}
	cache := NewBlockCache(int64(2 * blk.MemBytes())) // room for two entries
	for i := 0; i < 5; i++ {
		cache.Put(BlockKey{Gen: 1, File: "f", Index: i}, blk)
	}
	if st := cache.Stats(); st.Entries != 2 || st.Bytes != int64(2*blk.MemBytes()) {
		t.Fatalf("cache holds %d entries / %d bytes, want 2 entries within %d bytes",
			st.Entries, st.Bytes, 2*blk.MemBytes())
	}
	if _, ok := cache.Get(BlockKey{Gen: 1, File: "f", Index: 0}); ok {
		t.Fatal("evicted entry still served")
	}
	if _, ok := cache.Get(BlockKey{Gen: 1, File: "f", Index: 4}); !ok {
		t.Fatal("most recent entry evicted")
	}
}

// retiredSeedFrames are frames of retired layouts, CRC intact: a data and
// a feature block of the uncompressed encoder (payloads opening with their
// kind byte), and a feature block of version '3', whose posting lists
// carried a method byte and an entry count instead of a byte length. They
// stay in the fuzz corpus, with version-'4' frames (v4Frame), as
// well-formed-looking inputs the decoder must reject by their version
// byte.
var retiredSeedFrames = []string{
	"354403140606000000000000e03f000000000000e43f000000000000e83f0000000000000040000000000000fc3f000000000000f83f127111f5",
	"3e4603140606000000000000e03f000000000000e43f000000000000e83f0000000000000040000000000000fc3f000000000000f83f02020200010002000390a4d46b",
	"20334603060408330bfc0fc00000340afd0f200004010102050101010401070104bc299384",
}

// FuzzDecodeColFrame is the corruption fuzz target: arbitrary bytes must
// decode or fail with an error — never panic, never loop. Every accepted
// feature block is then queried with keywords derived from the input:
// CountHits must never panic, and wherever Validate accepts the block,
// CountHits must succeed and count exactly the intersection of each
// record's keywords (the forward view) with the query.
func FuzzDecodeColFrame(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	dict := text.NewDict()
	for _, kind := range []Kind{DataObject, FeatureObject} {
		raw, stats := writeSegment3(f, onlyKind(randObjects(r, 120), kind), 6, dict)
		for _, bs := range stats {
			f.Add(raw[bs.Offset : bs.Offset+int64(bs.Length)])
		}
	}
	retired := [][]byte{}
	for _, h := range retiredSeedFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		retired = append(retired, frame)
	}
	for _, rb := range refBlocks(r)[:3] {
		built, _ := BuildBlock(rb.objs, nil)
		retired = append(retired, v4Frame(built, rb.objs))
	}
	for _, frame := range retired {
		if _, err := DecodeColFrame(frame); err == nil || !strings.Contains(err.Error(), "version byte") {
			f.Fatalf("retired-format frame: err = %v, want an unknown-version error", err)
		}
		f.Add(frame)
	}
	for _, h := range hostileCol3Frames() {
		f.Add(h.frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0x05, 'F', 0x01})
	f.Fuzz(func(t *testing.T, frame []byte) {
		b, err := DecodeColFrame(frame)
		if err != nil {
			return
		}
		// Anything that decodes must be internally consistent enough to
		// view every record.
		if b.Len() == 0 {
			t.Fatal("decoded block with zero records")
		}
		for i := 0; i < b.Len(); i++ {
			_ = b.Object(i)
		}
		if b.Kind != FeatureObject {
			return
		}
		// The query: dictionary entries, when the dictionary reads, and
		// raw ids picked by the last bytes of the frame (its CRC, for a
		// frame that decodes).
		dict, _ := b.kw.ids()
		var ids []uint32
		for _, c := range frame[max(0, len(frame)-6):] {
			ids = append(ids, uint32(c))
			if len(dict) > 0 {
				ids = append(ids, dict[int(c)%len(dict)])
			}
		}
		q := text.NewKeywordSet(ids...)
		hits, marks := make([]uint32, b.Len()), make([]uint64, (b.Len()+63)/64)
		hitErr := b.CountHits(q, hits, marks)
		if b.Validate() != nil {
			return
		}
		if hitErr != nil {
			t.Fatalf("CountHits rejects a block Validate accepts: %v", hitErr)
		}
		for i := range hits {
			o := b.Object(i)
			if want := o.Keywords.IntersectionSize(q); int(hits[i]) != want {
				t.Fatalf("record %d: %d hits, its keywords %v meet query %v in %d", i, hits[i], o.Keywords, q, want)
			}
			if marked := marks[i>>6]>>(i&63)&1 == 1; marked != (hits[i] > 0) {
				t.Fatalf("record %d: marked=%v with %d hits", i, marked, hits[i])
			}
			if int(b.KwLen(i)) != o.Keywords.Len() {
				t.Fatalf("record %d: KwLen %d, %d keywords", i, b.KwLen(i), o.Keywords.Len())
			}
		}
	})
}

func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }
