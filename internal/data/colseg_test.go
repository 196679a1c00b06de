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
	var out []ColSel
	for _, cs := range append(append([]CellStats(nil), m.Data...), m.Features...) {
		out = append(out, ColSel{Cell: cs})
	}
	return out
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

// spq2SeedFrames are a data and a feature block frame written by the
// retired uncompressed encoder (payloads opening with their kind byte, CRC
// intact). They stay in the fuzz corpus as well-formed-looking inputs the
// decoder must reject.
var spq2SeedFrames = []string{
	"354403140606000000000000e03f000000000000e43f000000000000e83f0000000000000040000000000000fc3f000000000000f83f127111f5",
	"3e4603140606000000000000e03f000000000000e43f000000000000e83f0000000000000040000000000000fc3f000000000000f83f02020200010002000390a4d46b",
}

// FuzzDecodeColFrame is the corruption fuzz target: arbitrary bytes must
// decode or fail with an error — never panic, never loop.
func FuzzDecodeColFrame(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	dict := text.NewDict()
	for _, kind := range []Kind{DataObject, FeatureObject} {
		raw, stats := writeSegment3(f, onlyKind(randObjects(r, 120), kind), 6, dict)
		for _, bs := range stats {
			f.Add(raw[bs.Offset : bs.Offset+int64(bs.Length)])
		}
	}
	for _, h := range spq2SeedFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeColFrame(frame); err == nil || !strings.Contains(err.Error(), "version byte") {
			f.Fatalf("retired-format frame: err = %v, want an unknown-version error", err)
		}
		f.Add(frame)
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
	})
}

func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }
