package data

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/text"
)

// Partition-aware sealed storage. Instead of one monolithic object file,
// Seal writes the datasets as per-cell files over a fixed seal grid and
// records a manifest with per-cell statistics: record counts, tight
// bounding rectangles and — for feature cells — a bloom-style summary of
// the keywords occurring in the cell. The manifest is what the query
// planner (package plan) consumes to skip whole cell files before the
// MapReduce job starts, the classic write-time-partitioning trade of
// Hadoop-era systems: pay once at load, prune on every query.

// ManifestVersion is the on-disk manifest format version.
const ManifestVersion = 1

// Storage formats recorded in the manifest.
const (
	FormatCompressed = "spq3" // SPQ3: compressed columnar segments, adaptive blocks
	FormatMemory     = "mem"  // in-memory partitions, no DFS files
)

// IsColumnar reports whether the format stores cells as column blocks
// with zone maps, read through the block reader stack: ranged reads, the
// decoded-segment cache, data views.
func IsColumnar(format string) bool { return format == FormatCompressed }

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

// bloomHash computes the word's 64-bit FNV-1a digest once; the probe bit
// positions are derived from its two halves by double hashing.
func bloomHash(word string) (h1, h2 uint32) {
	h := fnv.New64a()
	h.Write([]byte(word))
	s := h.Sum64()
	return uint32(s), uint32(s>>32) | 1
}

// Add inserts a keyword into the summary.
func (b KeywordBloom) Add(word string) {
	h1, h2 := bloomHash(word)
	for i := uint32(0); i < bloomProbes; i++ {
		idx := (h1 + i*h2) % bloomBits
		b[idx/8] |= 1 << (idx % 8)
	}
}

// MayContain reports whether the keyword may occur in the cell. False
// positives are possible; false negatives are not. Summaries of
// unexpected length (possible only through a hand-crafted manifest, which
// DecodeManifest rejects) are treated as empty.
func (b KeywordBloom) MayContain(word string) bool {
	if len(b) != bloomBits/8 {
		return false
	}
	h1, h2 := bloomHash(word)
	for i := uint32(0); i < bloomProbes; i++ {
		idx := (h1 + i*h2) % bloomBits
		if b[idx/8]&(1<<(idx%8)) == 0 {
			return false
		}
	}
	return true
}

// MayContainAny reports whether any of the words may occur in the cell —
// the planner's keyword-disjointness test for one feature cell.
func (b KeywordBloom) MayContainAny(words []string) bool {
	for _, w := range words {
		if b.MayContain(w) {
			return true
		}
	}
	return false
}

// GridSpec records the seal grid a manifest was partitioned over.
type GridSpec struct {
	Bounds geo.Rect `json:"bounds"`
	N      int      `json:"n"` // the grid is N x N
}

// Grid reconstructs the seal grid.
func (s GridSpec) Grid() *grid.Grid { return grid.New(s.Bounds, s.N, s.N) }

// CellStats is the manifest entry for one non-empty seal-grid cell of one
// dataset (data objects and feature objects are partitioned separately, so
// the planner can prune them independently).
type CellStats struct {
	// Cell is the seal-grid cell id.
	Cell int32 `json:"cell"`
	// File names the cell's object file (a DFS file, or a synthetic
	// partition name under StorageMemory).
	File string `json:"file"`
	// Records is the number of objects in the cell.
	Records int `json:"records"`
	// Bounds is the tight bounding rectangle of the cell's objects —
	// tighter than the cell rectangle, which sharpens the planner's
	// distance pruning.
	Bounds geo.Rect `json:"bounds"`
	// Keywords summarizes the keywords of the cell's features. Empty for
	// data cells.
	Keywords KeywordBloom `json:"keywords,omitempty"`
	// Blocks are the per-block zone maps of a columnar cell segment
	// (FormatCompressed), in file order: each block's record count, frame
	// offset/length, tight bounding rectangle and keyword summary. The
	// planner prunes individual blocks against them, and readers fetch
	// surviving blocks by ranged read. Empty for memory cells, which are
	// only addressable whole.
	Blocks []BlockStats `json:"blocks,omitempty"`
}

// Manifest is the persisted description of one sealed, partitioned
// dataset: the seal grid, the storage format, and per-cell statistics for
// both datasets. Only non-empty cells appear.
type Manifest struct {
	Version int    `json:"version"`
	Format  string `json:"format"`
	// Generation is the storage generation this manifest seals. Under
	// generational ingestion the engine re-seals base+delta into a fresh
	// manifest on every compaction; the strictly increasing generation is
	// what keys query caches and lets readers tell apart the layouts. 0 in
	// manifests written before generations existed.
	Generation uint64      `json:"generation,omitempty"`
	Grid       GridSpec    `json:"grid"`
	Data       []CellStats `json:"data"`
	Features   []CellStats `json:"features"`
}

// Files returns every cell file of the manifest, data cells first.
func (m *Manifest) Files() []string {
	out := make([]string, 0, len(m.Data)+len(m.Features))
	for _, c := range m.Data {
		out = append(out, c.File)
	}
	for _, c := range m.Features {
		out = append(out, c.File)
	}
	return out
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

// EncodeManifest writes the manifest as JSON.
func EncodeManifest(w io.Writer, m *Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// DecodeManifest reads a manifest written by EncodeManifest.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("data: manifest decode: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("data: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	if m.Grid.N <= 0 {
		return nil, fmt.Errorf("data: manifest has invalid seal grid %dx%d", m.Grid.N, m.Grid.N)
	}
	switch m.Format {
	case FormatCompressed, FormatMemory:
	case "text", "seq", "spq2":
		return nil, fmt.Errorf("data: manifest uses retired format %q; re-seal the dataset (DFS storage is %q only)", m.Format, FormatCompressed)
	default:
		return nil, fmt.Errorf("data: manifest has unknown format %q", m.Format)
	}
	for _, cs := range m.Data {
		if len(cs.Keywords) != 0 {
			return nil, fmt.Errorf("data: manifest data cell %d has a keyword summary", cs.Cell)
		}
		if err := checkBlocks(cs, m.Format, false); err != nil {
			return nil, err
		}
	}
	for _, cs := range m.Features {
		if len(cs.Keywords) != bloomBits/8 {
			return nil, fmt.Errorf("data: manifest feature cell %d has a %d-byte keyword summary, want %d",
				cs.Cell, len(cs.Keywords), bloomBits/8)
		}
		if err := checkBlocks(cs, m.Format, true); err != nil {
			return nil, err
		}
	}
	return &m, nil
}

// checkBlocks validates one cell's block zone maps: columnar cells must
// carry maps whose record counts sum to the cell's, with non-overlapping
// frames in file order; non-columnar cells must carry none. A manifest
// failing these checks could make a reader fetch garbage offsets, so it is
// rejected whole.
func checkBlocks(cs CellStats, format string, feature bool) error {
	if !IsColumnar(format) {
		if len(cs.Blocks) != 0 {
			return fmt.Errorf("data: manifest %s cell %d has block zone maps but format %q", kindName(feature), cs.Cell, format)
		}
		return nil
	}
	if len(cs.Blocks) == 0 {
		return fmt.Errorf("data: manifest columnar %s cell %d has no block zone maps", kindName(feature), cs.Cell)
	}
	total := 0
	next := int64(0)
	for i, bs := range cs.Blocks {
		if bs.Records <= 0 || bs.Length <= 0 || bs.Offset < next {
			return fmt.Errorf("data: manifest %s cell %d block %d has invalid frame (%d records at %d+%d)",
				kindName(feature), cs.Cell, i, bs.Records, bs.Offset, bs.Length)
		}
		wantBloom := 0
		if feature {
			wantBloom = bloomBits / 8
		}
		if len(bs.Keywords) != wantBloom {
			return fmt.Errorf("data: manifest %s cell %d block %d has a %d-byte keyword summary, want %d",
				kindName(feature), cs.Cell, i, len(bs.Keywords), wantBloom)
		}
		next = bs.Offset + int64(bs.Length)
		total += bs.Records
	}
	if total != cs.Records {
		return fmt.Errorf("data: manifest %s cell %d blocks hold %d records, cell says %d",
			kindName(feature), cs.Cell, total, cs.Records)
	}
	return nil
}

func kindName(feature bool) string {
	if feature {
		return "feature"
	}
	return "data"
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

// stats computes the manifest entry of one cell partition.
func (c CellPart) stats(file string, dict *text.Dict, withKeywords bool) CellStats {
	cs := CellStats{Cell: int32(c.Cell), File: file, Records: len(c.Objects)}
	cs.Bounds = geo.Rect{MinX: 1, MaxX: -1} // empty
	if withKeywords {
		cs.Keywords = NewKeywordBloom()
	}
	for _, o := range c.Objects {
		cs.Bounds = cs.Bounds.Union(geo.Rect{MinX: o.Loc.X, MinY: o.Loc.Y, MaxX: o.Loc.X, MaxY: o.Loc.Y})
		if withKeywords {
			for _, w := range dict.Words(o.Keywords) {
				cs.Keywords.Add(w)
			}
		}
	}
	return cs
}

// cellFileName names one cell file: <prefix>-<d|f><cell>.<ext>.
func cellFileName(prefix, kind string, cell grid.CellID, ext string) string {
	return fmt.Sprintf("%s-%s%04d.%s", prefix, kind, cell, ext)
}

// ManifestFileName names the manifest persisted next to the cell files of
// a seal with the given prefix.
func ManifestFileName(prefix string) string { return prefix + ".manifest.json" }

// SealDFS writes every cell partition as its own SPQ3 columnar segment
// file in the DFS and persists the manifest as <prefix>.manifest.json. The
// returned manifest carries the per-cell statistics the planner prunes on
// and every block's zone map (CellStats.Blocks), with each cell's blocks
// sized adaptively from its record density (AdaptiveBlockRecords).
func (p *Partitions) SealDFS(fs *dfs.FileSystem, prefix string, dict *text.Dict) (*Manifest, error) {
	m := &Manifest{
		Version:    ManifestVersion,
		Format:     FormatCompressed,
		Generation: p.Generation,
		Grid:       GridSpec{Bounds: p.Grid.Bounds(), N: dims(p.Grid)},
	}
	write := func(part CellPart, kind string, withKeywords bool) (CellStats, error) {
		name := cellFileName(prefix, kind, part.Cell, "spq3")
		w, err := fs.Writer(name)
		if err != nil {
			return CellStats{}, err
		}
		cs := part.stats(name, dict, withKeywords)
		cw := NewCol3Writer(w, part.Objects[0].Kind, dict, AdaptiveBlockRecords(len(part.Objects)))
		for _, o := range part.Objects {
			if err := cw.Append(o); err != nil {
				return CellStats{}, err
			}
		}
		if err := cw.Close(); err != nil {
			return CellStats{}, err
		}
		cs.Blocks = cw.Stats()
		return cs, nil
	}
	for _, part := range p.Data {
		cs, err := write(part, "d", false)
		if err != nil {
			return nil, fmt.Errorf("data: seal cell %d: %w", part.Cell, err)
		}
		m.Data = append(m.Data, cs)
	}
	for _, part := range p.Features {
		cs, err := write(part, "f", true)
		if err != nil {
			return nil, fmt.Errorf("data: seal cell %d: %w", part.Cell, err)
		}
		m.Features = append(m.Features, cs)
	}
	mw, err := fs.Writer(ManifestFileName(prefix))
	if err != nil {
		return nil, fmt.Errorf("data: seal manifest: %w", err)
	}
	if err := EncodeManifest(mw, m); err != nil {
		return nil, fmt.Errorf("data: seal manifest: %w", err)
	}
	if err := mw.Close(); err != nil {
		return nil, fmt.Errorf("data: seal manifest: %w", err)
	}
	return m, nil
}

// SealMemory lays the partitions out as one contiguous object slice in
// manifest order (data cells, then feature cells) and returns the manifest
// with synthetic partition names. The caller recovers each partition's
// sub-slice by walking the manifest's Records counts in the same order —
// no per-query copying is ever needed.
func (p *Partitions) SealMemory(prefix string, dict *text.Dict) (*Manifest, []Object) {
	m := &Manifest{
		Version:    ManifestVersion,
		Format:     FormatMemory,
		Generation: p.Generation,
		Grid:       GridSpec{Bounds: p.Grid.Bounds(), N: dims(p.Grid)},
	}
	var ordered []Object
	m.Data, m.Features, ordered = p.CellView(prefix, dict)
	return m, ordered
}

// CellView computes the per-cell statistics and the cell-ordered object
// layout of the partitions without writing any storage: the in-memory
// analogue of a seal. It is what generational ingestion uses to describe
// the unsealed delta to the query planner — the returned CellStats mirror
// a manifest's (record counts, tight bounds, keyword summaries, synthetic
// per-cell names), so delta cells prune exactly like sealed ones.
func (p *Partitions) CellView(prefix string, dict *text.Dict) (dataCells, featureCells []CellStats, ordered []Object) {
	total := 0
	for _, part := range p.Data {
		total += len(part.Objects)
	}
	for _, part := range p.Features {
		total += len(part.Objects)
	}
	ordered = make([]Object, 0, total)
	for _, part := range p.Data {
		dataCells = append(dataCells, part.stats(cellFileName(prefix, "d", part.Cell, "mem"), dict, false))
		ordered = append(ordered, part.Objects...)
	}
	for _, part := range p.Features {
		featureCells = append(featureCells, part.stats(cellFileName(prefix, "f", part.Cell, "mem"), dict, true))
		ordered = append(ordered, part.Objects...)
	}
	return dataCells, featureCells, ordered
}

// dims returns the edge cell count of a square grid.
func dims(g *grid.Grid) int {
	nx, _ := g.Dims()
	return nx
}
