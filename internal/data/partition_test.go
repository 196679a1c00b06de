package data

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

func TestKeywordBloomMembership(t *testing.T) {
	b := NewKeywordBloom()
	added := []string{"italian", "sushi", "wine", "cheap", "gourmet"}
	for _, w := range added {
		b.Add(w)
	}
	for _, w := range added {
		if !b.MayContain(w) {
			t.Errorf("MayContain(%q) = false after Add (false negative)", w)
		}
	}
	if !b.MayContainAny(NewKeywordProbe([]string{"nope", "wine"})) {
		t.Error("MayContainAny missed an added word")
	}
	// A nearly empty bloom must prune almost every unrelated word.
	misses := 0
	for i := 0; i < 1000; i++ {
		if !b.MayContain(fmt.Sprintf("unrelated-%d", i)) {
			misses++
		}
	}
	if misses < 990 {
		t.Errorf("only %d/1000 unrelated words pruned; bloom too dense", misses)
	}
	if b.MayContainAny(NewKeywordProbe(nil)) {
		t.Error("MayContainAny matched an empty word set")
	}
	var empty KeywordBloom
	if empty.MayContain("anything") {
		t.Error("empty (nil) bloom claims membership")
	}
}

// testObjects builds a small mixed dataset over the unit square.
func testObjects(n int, dict *text.Dict) []Object {
	r := rand.New(rand.NewSource(11))
	objs := make([]Object, 0, n)
	for i := 0; i < n; i++ {
		o := Object{
			ID:  uint64(i + 1),
			Loc: geo.Point{X: r.Float64(), Y: r.Float64()},
		}
		if i%2 == 1 {
			o.Kind = FeatureObject
			o.Keywords = dict.InternAll([]string{
				fmt.Sprintf("kw%d", r.Intn(20)),
				fmt.Sprintf("kw%d", r.Intn(20)),
			})
		}
		objs = append(objs, o)
	}
	return objs
}

func sortedByID(objs []Object) []Object {
	out := append([]Object(nil), objs...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func TestPartitionObjectsPreservesDataset(t *testing.T) {
	dict := text.NewDict()
	objs := testObjects(200, dict)
	g := grid.NewSquare(8)
	p := PartitionObjects(g, objs)

	var all []Object
	for _, part := range append(append([]CellPart(nil), p.Data...), p.Features...) {
		for _, o := range part.Objects {
			if got := g.CellOf(o.Loc); got != part.Cell {
				t.Fatalf("object %d in cell %d, assigned to partition %d", o.ID, got, part.Cell)
			}
		}
		all = append(all, part.Objects...)
	}
	if !reflect.DeepEqual(sortedByID(all), sortedByID(objs)) {
		t.Fatalf("partitioning lost or duplicated objects: %d vs %d", len(all), len(objs))
	}
	for _, part := range p.Data {
		for _, o := range part.Objects {
			if o.Kind != DataObject {
				t.Fatalf("feature %d in a data partition", o.ID)
			}
		}
	}
}

func TestSealDFSRoundTrip(t *testing.T) {
	dict := text.NewDict()
	objs := testObjects(300, dict)
	g := grid.NewSquare(4)
	fs := dfs.New(dfs.Config{NumNodes: 4, BlockSize: 512})
	man, err := PartitionObjects(g, objs).SealDFS(fs, "t", dict)
	if err != nil {
		t.Fatal(err)
	}
	if man.TotalRecords() != int64(len(objs)) {
		t.Errorf("manifest records = %d, want %d", man.TotalRecords(), len(objs))
	}

	// The seal writes the cell segments the manifest names and nothing
	// else: the manifest itself lives in memory only.
	var cells []string
	for _, cs := range append(append([]CellStats(nil), man.Data...), man.Features...) {
		cells = append(cells, cs.File)
	}
	sort.Strings(cells)
	if files := fs.List(); !reflect.DeepEqual(files, cells) {
		t.Errorf("seal wrote %v, want only the cell segments %v", files, cells)
	}

	// Reading every cell file back yields exactly the dataset.
	var back []Object
	if err := eachSourceObject(NewColInput(fs, allBlocks(man), nil, 0), func(o Object) { back = append(back, o) }); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(sortedByID(back), sortedByID(objs)) {
		t.Errorf("cell files do not round-trip the dataset (%d vs %d objects)", len(back), len(objs))
	}

	// Feature-cell keyword summaries cover the cell's keywords, and every
	// cell carries its block zone maps.
	for _, cs := range man.Features {
		if len(cs.Keywords) == 0 {
			t.Fatalf("feature cell %d has no keyword summary", cs.Cell)
		}
	}
	for _, cs := range man.Data {
		if len(cs.Keywords) != 0 {
			t.Fatalf("data cell %d has a keyword summary", cs.Cell)
		}
	}
	for _, cs := range append(append([]CellStats(nil), man.Data...), man.Features...) {
		if len(cs.Blocks) == 0 {
			t.Fatalf("cell %d has no block zone maps", cs.Cell)
		}
	}
}

// eachSourceObject drains a mapreduce source (test helper).
func eachSourceObject(src interface {
	Splits() ([]mapreduce.SourceSplit[Object], error)
}, f func(Object)) error {
	splits, err := src.Splits()
	if err != nil {
		return err
	}
	for _, s := range splits {
		if err := s.Each(func(o Object) bool { f(o); return true }); err != nil {
			return err
		}
	}
	return nil
}

// TestSealBlocksLayoutMatchesManifest: the SealBlocks manifest describes
// its resident blocks. Every cell lists one frameless zone map per block,
// the zone maps' records sum to the cell's, each block holds as many
// objects as its zone map says, every object sits in its manifest cell,
// and the resident blocks hold exactly the dataset.
func TestSealBlocksLayoutMatchesManifest(t *testing.T) {
	dict := text.NewDict()
	objs := testObjects(2500, dict)
	g := grid.NewSquare(2) // ~310 objects per cell and kind: two blocks each
	p := PartitionObjects(g, objs)
	p.Generation = 7
	man, resident := p.SealBlocks("m", dict)
	if man.Generation != 7 {
		t.Fatalf("memory manifest generation %d, want 7", man.Generation)
	}
	if len(resident) != len(man.Data)+len(man.Features) {
		t.Fatalf("%d resident cells, manifest lists %d", len(resident), len(man.Data)+len(man.Features))
	}
	var back []Object
	multiBlock := false
	for _, cs := range append(append([]CellStats(nil), man.Data...), man.Features...) {
		blocks := resident[cs.File]
		if len(blocks) == 0 || len(blocks) != len(cs.Blocks) {
			t.Fatalf("cell %d: %d resident blocks, %d zone maps", cs.Cell, len(blocks), len(cs.Blocks))
		}
		multiBlock = multiBlock || len(blocks) > 1
		records := 0
		for bi, bs := range cs.Blocks {
			if bs.Offset != 0 || bs.Length != 0 {
				t.Fatalf("cell %d block %d: resident block has a frame", cs.Cell, bi)
			}
			if blocks[bi].Len() != bs.Records {
				t.Fatalf("cell %d block %d: %d objects, zone map says %d", cs.Cell, bi, blocks[bi].Len(), bs.Records)
			}
			records += bs.Records
			for _, o := range blocks[bi].AppendObjects(nil) {
				if int32(g.CellOf(o.Loc)) != cs.Cell {
					t.Fatalf("object %d of cell %d is in cell %d", o.ID, cs.Cell, g.CellOf(o.Loc))
				}
				back = append(back, o)
			}
		}
		if records != cs.Records {
			t.Fatalf("cell %d: zone maps cover %d records, cell has %d", cs.Cell, records, cs.Records)
		}
	}
	if !multiBlock {
		t.Error("no cell spans several blocks: the block cut is untested")
	}
	if !reflect.DeepEqual(sortedByID(back), sortedByID(objs)) {
		t.Errorf("resident blocks do not hold the dataset (%d vs %d objects)", len(back), len(objs))
	}
}

// TestSealBlocksMatchesSealDFS: the delta's seal (SealBlocks) is the SPQ3
// seal minus the encoding. Over the same partitions both manifests list the same cells
// with the same zone maps — records, bounds, blooms; frames only in SPQ3 —
// and every resident block equals, column by column, the block decoded
// from its stored frame. Planner pruning and the map phase treat delta
// and SPQ3 cells alike on the strength of this.
func TestSealBlocksMatchesSealDFS(t *testing.T) {
	dict := text.NewDict()
	objs := testObjects(2500, dict)
	g := grid.NewSquare(2)

	p := PartitionObjects(g, objs)
	p.Generation = 7
	fs := dfs.New(dfs.Config{NumNodes: 4, BlockSize: 4096})
	stored, err := p.SealDFS(fs, "t", dict)
	if err != nil {
		t.Fatal(err)
	}
	mem, resident := p.SealBlocks("t", dict)
	if mem.Generation != stored.Generation || mem.Grid != stored.Grid {
		t.Fatalf("memory manifest header: generation %d, grid %+v; SPQ3: %d, %+v",
			mem.Generation, mem.Grid, stored.Generation, stored.Grid)
	}
	for _, pair := range [][2][]CellStats{{mem.Data, stored.Data}, {mem.Features, stored.Features}} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%d memory cells, %d SPQ3 cells", len(pair[0]), len(pair[1]))
		}
		for i, m := range pair[0] {
			s := pair[1][i]
			if m.Cell != s.Cell || m.Records != s.Records || m.Bounds != s.Bounds ||
				!bytes.Equal(m.Keywords, s.Keywords) || len(m.Blocks) != len(s.Blocks) || len(resident[m.File]) != len(m.Blocks) {
				t.Fatalf("cell %d: memory entry %+v differs from SPQ3 entry %+v", m.Cell, m, s)
			}
			for bi, mb := range m.Blocks {
				sb := s.Blocks[bi]
				requireSameZoneMap(t, mb, sb)
				frame, err := fs.ReadRange(s.File, sb.Offset, sb.Length)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := DecodeColFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBlock(t, resident[m.File][bi], dec)
			}
		}
	}
}
