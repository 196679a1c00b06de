package data

import (
	"reflect"
	"testing"

	"spq/internal/dfs"
	"spq/internal/grid"
	"spq/internal/text"
)

// TestBlockListRoundTrip seals a dataset and reads its data cells back
// through the block list alone: the list names every data block's frame
// and count exactly as the manifest does, and the blocks it selects hold
// exactly the dataset's data objects.
func TestBlockListRoundTrip(t *testing.T) {
	dict := text.NewDict()
	objs := testObjects(3000, dict)
	fs := dfs.New(dfs.Config{NumNodes: 4, BlockSize: 512})
	man, err := PartitionObjects(grid.NewSquare(2), objs).SealDFS(fs, "t", dict)
	if err != nil {
		t.Fatal(err)
	}
	sels, err := DecodeBlockList(EncodeBlockList(man.Data))
	if err != nil {
		t.Fatal(err)
	}
	if len(sels) != len(man.Data) {
		t.Fatalf("%d cells listed, the manifest has %d", len(sels), len(man.Data))
	}
	multi := false
	for i, sel := range sels {
		cs := man.Data[i]
		multi = multi || len(cs.Blocks) > 1
		if sel.Cell.File != cs.File || sel.Cell.Records != cs.Records || len(sel.Cell.Blocks) != len(cs.Blocks) || sel.Blocks != nil || sel.Resident != nil {
			t.Fatalf("cell %d listed as %+v, manifest %+v", i, sel.Cell, cs)
		}
		for j, b := range sel.Cell.Blocks {
			if w := cs.Blocks[j]; b.Offset != w.Offset || b.Length != w.Length || b.Records != w.Records {
				t.Errorf("cell %s block %d listed as %+v, manifest %+v", cs.File, j, b, w)
			}
		}
	}
	if !multi {
		t.Fatal("no cell has more than one block; the dataset is too small")
	}
	var back, want []Object
	if err := eachSourceObject(NewColInput(fs, sels, nil, 0), func(o Object) { back = append(back, o) }); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if o.Kind == DataObject {
			want = append(want, o)
		}
	}
	if !reflect.DeepEqual(sortedByID(back), sortedByID(want)) {
		t.Errorf("the listed blocks hold %d objects, want the %d data objects", len(back), len(want))
	}
}

// FuzzDecodeBlockList feeds the block list decoder arbitrary bytes. A
// list reaches a worker off the wire: the decoder must return an error,
// never panic, and never allocate an entry the bytes do not carry; every
// list it accepts names at least one block per cell, each a non-empty
// frame of at most colMaxBlockRecords records, and survives a re-encode.
func FuzzDecodeBlockList(f *testing.F) {
	dict := text.NewDict()
	fs := dfs.New(dfs.Config{NumNodes: 1, BlockSize: 512})
	man, err := PartitionObjects(grid.NewSquare(2), testObjects(200, dict)).SealDFS(fs, "f", dict)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeBlockList(man.Data))
	f.Add(EncodeBlockList(nil))
	f.Add([]byte{200, 1, 'f'})
	f.Add([]byte{1, 1, 'f', 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		sels, err := DecodeBlockList(raw)
		if err != nil {
			return
		}
		blocks := 0
		for _, sel := range sels {
			if sel.Cell.File == "" || len(sel.Cell.Blocks) == 0 {
				t.Fatalf("accepted cell %+v", sel.Cell)
			}
			recs := 0
			for _, b := range sel.Cell.Blocks {
				if b.Length <= 0 || b.Offset < 0 || b.Records <= 0 || b.Records > colMaxBlockRecords {
					t.Fatalf("accepted block %+v", b)
				}
				recs += b.Records
			}
			if recs != sel.Cell.Records {
				t.Fatalf("cell %s counts %d records, its blocks %d", sel.Cell.File, sel.Cell.Records, recs)
			}
			blocks += len(sel.Cell.Blocks)
		}
		if len(sels)+blocks > len(raw) {
			t.Fatalf("%d cells and %d blocks from %d bytes", len(sels), blocks, len(raw))
		}
		cells := make([]CellStats, len(sels))
		for i, sel := range sels {
			cells[i] = *sel.Cell
		}
		again, err := DecodeBlockList(EncodeBlockList(cells))
		if err != nil || !reflect.DeepEqual(again, sels) {
			t.Fatalf("re-encoded list decodes to %v, %v", again, err)
		}
	})
}
