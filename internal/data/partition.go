package data

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/text"
)

// Partition-aware sealed storage. Instead of one monolithic object file,
// Seal writes the datasets as per-cell SPQ3 segment files over a fixed
// seal grid and returns an in-memory manifest with per-cell statistics:
// record counts, tight bounding rectangles and — for feature cells — a
// bloom-style summary of the keywords occurring in the cell. The manifest
// is what the query planner (package plan) consumes to skip whole cell
// files before the MapReduce job starts, the classic write-time-
// partitioning trade of Hadoop-era systems: pay once at load, prune on
// every query.

// Bloom filter geometry for per-cell keyword summaries. 2048 bits and 3
// probes keep the false-positive rate under 1% for the few hundred
// distinct keywords a 32x32-grid cell typically holds; a false positive
// only costs a missed pruning opportunity, never a wrong result.
const (
	bloomBits   = 2048
	bloomProbes = 3
)

// KeywordBloom is a bloom-style bitmap summarizing the keyword strings of
// one feature cell. Keywords are hashed as strings (not interned ids) so
// the summary is valid across dictionary rebuilds and engine restarts.
// The zero value (nil) is the empty summary and contains nothing.
type KeywordBloom []byte

// NewKeywordBloom returns an empty summary.
func NewKeywordBloom() KeywordBloom { return make(KeywordBloom, bloomBits/8) }

// bloomBitsOf computes the word's probe bit positions: the two halves of
// its 64-bit FNV-1a digest, combined by double hashing.
func bloomBitsOf(word string) (bits [bloomProbes]uint32) {
	h := fnv.New64a()
	h.Write([]byte(word))
	s := h.Sum64()
	h1, h2 := uint32(s), uint32(s>>32)|1
	for i := range bits {
		bits[i] = (h1 + uint32(i)*h2) % bloomBits
	}
	return bits
}

// Add inserts a keyword into the summary.
func (b KeywordBloom) Add(word string) {
	for _, idx := range bloomBitsOf(word) {
		b[idx/8] |= 1 << (idx % 8)
	}
}

// MayContain reports whether the keyword may occur in the cell. False
// positives are possible; false negatives are not. Summaries of
// unexpected length are treated as empty.
func (b KeywordBloom) MayContain(word string) bool {
	return b.MayContainAny(KeywordProbe{bloomBitsOf(word)})
}

// KeywordProbe is a keyword set hashed once into its probe bit positions,
// so testing it against many summaries costs no hashing: the planner
// hashes a query's words once per query, not once per feature block.
type KeywordProbe [][bloomProbes]uint32

// NewKeywordProbe hashes the words.
func NewKeywordProbe(words []string) KeywordProbe {
	p := make(KeywordProbe, len(words))
	for i, w := range words {
		p[i] = bloomBitsOf(w)
	}
	return p
}

// MayContainAny reports whether any of the probe's words may occur in the
// cell — the planner's keyword-disjointness test for one feature block.
func (b KeywordBloom) MayContainAny(p KeywordProbe) bool {
	if len(b) != bloomBits/8 {
		return false
	}
next:
	for _, bits := range p {
		for _, idx := range bits {
			if b[idx/8]&(1<<(idx%8)) == 0 {
				continue next
			}
		}
		return true
	}
	return false
}

// GridSpec records the seal grid a manifest was partitioned over.
type GridSpec struct {
	Bounds geo.Rect
	N      int // the grid is N x N
}

// Grid reconstructs the seal grid.
func (s GridSpec) Grid() *grid.Grid { return grid.New(s.Bounds, s.N, s.N) }

// CellStats is the manifest entry for one non-empty seal-grid cell of one
// dataset (data objects and feature objects are partitioned separately, so
// the planner can prune them independently).
type CellStats struct {
	// Cell is the seal-grid cell id.
	Cell int32
	// File names the cell: its SPQ3 segment file in the DFS, or the key
	// of its resident blocks (the delta).
	File string
	// Records is the number of objects in the cell.
	Records int
	// Bounds is the tight bounding rectangle of the cell's objects —
	// tighter than the cell rectangle, which sharpens the planner's
	// distance pruning.
	Bounds geo.Rect
	// Keywords summarizes the keywords of the cell's features. Empty for
	// data cells.
	Keywords KeywordBloom
	// Blocks are the zone maps of the cell's column blocks, in block
	// order: each block's record count, tight bounding rectangle and
	// keyword summary, plus — for an SPQ3 segment — its frame's offset and
	// length. Every cell has them, stored or resident: the planner prunes
	// individual blocks against them, and readers fetch surviving blocks by
	// ranged read or take them resident.
	Blocks []BlockStats
}

// Manifest is the in-memory description of one sealed, partitioned
// dataset: the seal grid and per-cell statistics for both datasets. Only
// non-empty cells appear.
type Manifest struct {
	// Generation is the storage generation this manifest seals. Under
	// generational ingestion the engine re-seals base+delta into a fresh
	// manifest on every compaction; the strictly increasing generation is
	// what keys query caches and lets readers tell apart the layouts.
	Generation uint64
	Grid       GridSpec
	Data       []CellStats
	Features   []CellStats

	deriveOnce sync.Once // see Derive
	derived    any
}

// Derive returns build(m), computed on the first call and kept for the
// manifest's lifetime; later calls return the same value whatever build
// they pass. It is where the query planner keeps its per-generation block
// index, so the index dies with the manifest it indexes. Safe for
// concurrent use. A manifest must not be mutated once derived from: the
// engine never mutates a published one.
func (m *Manifest) Derive(build func(*Manifest) any) any {
	m.deriveOnce.Do(func() { m.derived = build(m) })
	return m.derived
}

// TotalRecords returns the total object count across both datasets.
func (m *Manifest) TotalRecords() int64 {
	var n int64
	for _, c := range m.Data {
		n += int64(c.Records)
	}
	for _, c := range m.Features {
		n += int64(c.Records)
	}
	return n
}

// CellPart is the objects of one dataset falling into one seal-grid cell.
type CellPart struct {
	Cell    grid.CellID
	Objects []Object
}

// Partitions groups a dataset's objects by seal-grid cell, data and
// feature objects separately, each sorted by cell id for deterministic
// file layout.
type Partitions struct {
	Grid *grid.Grid
	// Generation, when set before sealing, is recorded in the manifest (see
	// Manifest.Generation).
	Generation uint64
	Data       []CellPart
	Features   []CellPart
}

// PartitionObjects assigns every object to its enclosing seal-grid cell.
// Input order is preserved within each cell, so a sealed-then-concatenated
// dataset holds exactly the loaded objects.
func PartitionObjects(g *grid.Grid, objs []Object) *Partitions {
	p := &Partitions{Grid: g}
	dataIdx := make(map[grid.CellID]int)
	featIdx := make(map[grid.CellID]int)
	for _, o := range objs {
		c := g.CellOf(o.Loc)
		if o.Kind == DataObject {
			i, ok := dataIdx[c]
			if !ok {
				i = len(p.Data)
				dataIdx[c] = i
				p.Data = append(p.Data, CellPart{Cell: c})
			}
			p.Data[i].Objects = append(p.Data[i].Objects, o)
		} else {
			i, ok := featIdx[c]
			if !ok {
				i = len(p.Features)
				featIdx[c] = i
				p.Features = append(p.Features, CellPart{Cell: c})
			}
			p.Features[i].Objects = append(p.Features[i].Objects, o)
		}
	}
	sort.Slice(p.Data, func(i, j int) bool { return p.Data[i].Cell < p.Data[j].Cell })
	sort.Slice(p.Features, func(i, j int) bool { return p.Features[i].Cell < p.Features[j].Cell })
	return p
}

// build cuts the cell partition into column blocks (BuildBlocks) and
// returns them with the cell's manifest entry: the blocks' zone maps, and
// the union of their bounds and keyword summaries.
func (c CellPart) build(file string, dict *text.Dict) (CellStats, []*ColumnBlock) {
	blocks, zones := BuildBlocks(c.Objects, dict)
	cs := CellStats{Cell: int32(c.Cell), File: file, Records: len(c.Objects), Blocks: zones}
	cs.Bounds = geo.Rect{MinX: 1, MaxX: -1} // empty
	if c.Objects[0].Kind == FeatureObject {
		cs.Keywords = NewKeywordBloom()
	}
	for _, bs := range zones {
		cs.Bounds = cs.Bounds.Union(bs.Bounds)
		for i, bits := range bs.Keywords {
			cs.Keywords[i] |= bits
		}
	}
	return cs, blocks
}

// seal builds every cell partition into blocks, data cells first, naming
// each <prefix>-<d|f><cell>.<ext>; hands each cell to store, which keeps
// its blocks and may complete its manifest entry; and returns the
// manifest of the cells.
func (p *Partitions) seal(prefix, ext string, dict *text.Dict, store func(cs *CellStats, blocks []*ColumnBlock) error) (*Manifest, error) {
	m := &Manifest{
		Generation: p.Generation,
		Grid:       GridSpec{Bounds: p.Grid.Bounds(), N: dims(p.Grid)},
	}
	for _, kind := range []struct {
		parts []CellPart
		tag   string
		cells *[]CellStats
	}{{p.Data, "d", &m.Data}, {p.Features, "f", &m.Features}} {
		for _, part := range kind.parts {
			cs, blocks := part.build(fmt.Sprintf("%s-%s%04d.%s", prefix, kind.tag, part.Cell, ext), dict)
			if err := store(&cs, blocks); err != nil {
				return nil, fmt.Errorf("data: seal cell %d: %w", part.Cell, err)
			}
			*kind.cells = append(*kind.cells, cs)
		}
	}
	return m, nil
}

// SealDFS writes every cell partition as its own SPQ3 columnar segment
// file in the DFS, and nothing else. The returned manifest, which lives
// only in memory, carries the per-cell statistics the planner prunes on
// and every block's zone map (CellStats.Blocks), with each cell's blocks
// sized adaptively from its record density (AdaptiveBlockRecords).
func (p *Partitions) SealDFS(fs *dfs.FileSystem, prefix string, dict *text.Dict) (*Manifest, error) {
	return p.seal(prefix, "spq3", dict, func(cs *CellStats, blocks []*ColumnBlock) error {
		w, err := fs.Writer(cs.File)
		if err != nil {
			return err
		}
		cw := NewCol3Writer(w, blocks[0].Kind, dict, 0)
		for i, b := range blocks {
			if err := cw.writeBlock(b, cs.Blocks[i]); err != nil {
				return err
			}
		}
		if err := cw.Close(); err != nil {
			return err
		}
		cs.Blocks = cw.Stats()
		return nil
	})
}

// SealBlocks builds every cell partition as resident column blocks — the
// blocks SealDFS writes, never encoded — and returns the manifest of the
// layout (every block's zone map, no frames) with each cell's blocks by
// cell name. It is the delta's seal: generational ingestion cuts the
// uncompacted delta into these blocks, so delta and SPQ3 cells plan and
// map alike.
func (p *Partitions) SealBlocks(prefix string, dict *text.Dict) (*Manifest, map[string][]*ColumnBlock) {
	resident := make(map[string][]*ColumnBlock, len(p.Data)+len(p.Features))
	// Keeping the blocks cannot fail, so neither can seal.
	m, _ := p.seal(prefix, "mem", dict, func(cs *CellStats, blocks []*ColumnBlock) error {
		resident[cs.File] = blocks
		return nil
	})
	return m, resident
}

// dims returns the edge cell count of a square grid.
func dims(g *grid.Grid) int {
	nx, _ := g.Dims()
	return nx
}
