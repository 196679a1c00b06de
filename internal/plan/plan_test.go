package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/text"
)

// twoClusters partitions a synthetic two-cluster dataset over a sealN x
// sealN grid of the unit square: cluster A around (0.2, 0.2) with keyword
// vocabulary "a*", cluster B around (0.8, 0.8) with vocabulary "b*".
func twoClusters(sealN int, dict *text.Dict) *data.Partitions {
	r := rand.New(rand.NewSource(3))
	var objs []data.Object
	id := uint64(0)
	add := func(cx, cy float64, vocab string) {
		for i := 0; i < 200; i++ {
			id++
			loc := geo.Point{X: cx + r.Float64()*0.1 - 0.05, Y: cy + r.Float64()*0.1 - 0.05}
			if i%2 == 0 {
				objs = append(objs, data.Object{Kind: data.DataObject, ID: id, Loc: loc})
			} else {
				objs = append(objs, data.Object{
					Kind:     data.FeatureObject,
					ID:       id,
					Loc:      loc,
					Keywords: dict.InternAll([]string{fmt.Sprintf("%s%d", vocab, r.Intn(10))}),
				})
			}
		}
	}
	add(0.2, 0.2, "a")
	add(0.8, 0.8, "b")
	return data.PartitionObjects(grid.New(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, sealN, sealN), objs)
}

// buildManifest seals the two-cluster dataset as resident blocks. Its
// cells hold at most 200 records, so each is one block.
func buildManifest(t *testing.T, sealN int) *data.Manifest {
	t.Helper()
	dict := text.NewDict()
	m, _ := twoClusters(sealN, dict).SealBlocks("t", dict)
	return m
}

func records(cells []data.CellStats) int64 {
	var n int64
	for _, c := range cells {
		n += int64(c.Records)
	}
	return n
}

func TestPlanKeywordAndDistancePruning(t *testing.T) {
	m := buildManifest(t, 16)
	// A query for an "a"-cluster keyword with a small radius must drop
	// every "b"-cluster cell: its feature cells by keyword disjointness,
	// its data cells because no surviving feature cell is in range.
	d := PlanGenerations(m, nil, nil, Input{Radius: 0.02, Keywords: []string{"a3"}})
	if d.Empty() {
		t.Fatal("plan empty for a matching query")
	}
	if d.Stats.RecordsSelected >= d.Stats.RecordsTotal/2+int64(len(m.Data)) {
		t.Errorf("selected %d of %d records; cluster B not pruned",
			d.Stats.RecordsSelected, d.Stats.RecordsTotal)
	}
	for _, cs := range d.Data {
		if cs.Bounds.MinX > 0.5 {
			t.Errorf("data cell %d from cluster B survived", cs.Cell)
		}
	}
	for _, cs := range d.Features {
		if !cs.Keywords.MayContain("a3") {
			t.Errorf("feature cell %d without the query keyword survived", cs.Cell)
		}
	}
	if got := records(d.Data) + records(d.Features); got != d.Stats.RecordsSelected {
		t.Errorf("RecordsSelected = %d, cells sum to %d", d.Stats.RecordsSelected, got)
	}
	if len(d.Blocks) != len(d.Data)+len(d.Features) {
		t.Errorf("Blocks = %d entries, want %d", len(d.Blocks), len(d.Data)+len(d.Features))
	}
	c := d.Counters()
	if c[CounterRecordsSkipped] != d.Stats.RecordsTotal-d.Stats.RecordsSelected {
		t.Errorf("records-skipped counter = %d", c[CounterRecordsSkipped])
	}
}

func TestPlanUnknownKeywordIsProvablyEmpty(t *testing.T) {
	m := buildManifest(t, 16)
	d := PlanGenerations(m, nil, nil, Input{Radius: 0.1, Keywords: []string{"no-such-word-xyzzy"}})
	if !d.Empty() {
		t.Errorf("plan for an out-of-vocabulary keyword kept %d data / %d feature cells",
			len(d.Data), len(d.Features))
	}
}

func TestPlanLargeRadiusKeepsEverythingRelevant(t *testing.T) {
	m := buildManifest(t, 16)
	// Radius spanning the whole space: distance pruning must keep every
	// data cell; keyword pruning still drops cluster B's feature cells.
	d := PlanGenerations(m, nil, nil, Input{Radius: 2, Keywords: []string{"a1"}})
	if len(d.Data) != len(m.Data) {
		t.Errorf("kept %d of %d data cells under a space-covering radius", len(d.Data), len(m.Data))
	}
	if len(d.Features) >= len(m.Features) {
		t.Errorf("no feature cell pruned despite disjoint vocabulary")
	}
}

// buildDelta computes delta cell sets for a cluster around (cx, cy) with
// the given keyword vocabulary, cut into blocks over the manifest's seal
// grid exactly as the engine's delta is.
func buildDelta(m *data.Manifest, cx, cy float64, vocab string, n int) (dataCells, featureCells []data.CellStats) {
	dict := text.NewDict()
	r := rand.New(rand.NewSource(9))
	var objs []data.Object
	for i := 0; i < n; i++ {
		loc := geo.Point{X: cx + r.Float64()*0.1 - 0.05, Y: cy + r.Float64()*0.1 - 0.05}
		if i%2 == 0 {
			objs = append(objs, data.Object{Kind: data.DataObject, ID: uint64(10000 + i), Loc: loc})
		} else {
			objs = append(objs, data.Object{
				Kind:     data.FeatureObject,
				ID:       uint64(10000 + i),
				Loc:      loc,
				Keywords: dict.InternAll([]string{fmt.Sprintf("%s%d", vocab, r.Intn(10))}),
			})
		}
	}
	delta, _ := data.PartitionObjects(m.Grid.Grid(), objs).SealBlocks("delta", dict)
	return delta.Data, delta.Features
}

func TestPlanGenerationsJointPruning(t *testing.T) {
	m := buildManifest(t, 16)
	// Delta cluster around (0.5, 0.5) with its own vocabulary "c*".
	dd, df := buildDelta(m, 0.5, 0.5, "c", 200)

	// A "c"-keyword query prunes every base feature cell by keyword
	// disjointness but keeps the delta: surviving cells must be delta-only
	// features plus the data cells (base or delta) they can reach.
	d := PlanGenerations(m, dd, df, Input{Radius: 0.02, Keywords: []string{"c4"}})
	if d.Empty() {
		t.Fatal("plan empty despite matching delta cells")
	}
	if len(d.Features) != 0 {
		t.Errorf("%d base feature cells survived a delta-only keyword", len(d.Features))
	}
	if len(d.DeltaFeatures) == 0 {
		t.Error("no delta feature cell survived its own keyword")
	}
	if d.Stats.DeltaCells != len(dd)+len(df) {
		t.Errorf("DeltaCells = %d, want %d", d.Stats.DeltaCells, len(dd)+len(df))
	}
	if d.Stats.DeltaRecords != records(dd)+records(df) {
		t.Errorf("DeltaRecords = %d, want %d", d.Stats.DeltaRecords, records(dd)+records(df))
	}
	if got := records(d.DeltaData) + records(d.DeltaFeatures); got != d.Stats.DeltaRecordsSelected {
		t.Errorf("DeltaRecordsSelected = %d, delta cells sum to %d", d.Stats.DeltaRecordsSelected, got)
	}
	if got := records(d.Data) + records(d.Features) + d.Stats.DeltaRecordsSelected; got != d.Stats.RecordsSelected {
		t.Errorf("RecordsSelected = %d, survivors sum to %d", d.Stats.RecordsSelected, got)
	}
	// Surviving delta cells carry their block selections like sealed ones.
	for _, cs := range append(append([]data.CellStats(nil), d.DeltaData...), d.DeltaFeatures...) {
		if len(d.Blocks[cs.File]) == 0 {
			t.Errorf("surviving delta cell %s has no block selection", cs.File)
		}
	}

	// An "a"-keyword query with a small radius keeps cluster A and prunes
	// the whole delta — base data cells must not be kept alive by
	// unreachable delta features.
	d = PlanGenerations(m, dd, df, Input{Radius: 0.02, Keywords: []string{"a3"}})
	if len(d.DeltaFeatures) != 0 {
		t.Errorf("%d delta feature cells survived keyword 'a3'", len(d.DeltaFeatures))
	}
	if len(d.DeltaData) != 0 {
		t.Errorf("%d delta data cells survived with no reachable feature", len(d.DeltaData))
	}
	if d.Stats.DeltaCellsPruned != d.Stats.DeltaCells {
		t.Errorf("DeltaCellsPruned = %d, want all %d", d.Stats.DeltaCellsPruned, d.Stats.DeltaCells)
	}

	// Cross-generation reachability: a radius large enough to span the
	// space keeps base data cells alive through delta features alone.
	d = PlanGenerations(m, dd, df, Input{Radius: 2, Keywords: []string{"c1"}})
	if len(d.Data) != len(m.Data) {
		t.Errorf("kept %d of %d base data cells; delta features should reach all", len(d.Data), len(m.Data))
	}
	if d.Empty() {
		t.Error("plan empty despite space-covering radius and matching delta keyword")
	}
}

func TestPlanGenerationsEmptyAcrossBothSets(t *testing.T) {
	m := buildManifest(t, 16)
	dd, df := buildDelta(m, 0.5, 0.5, "c", 50)
	// A keyword in neither generation's vocabulary proves emptiness even
	// with delta cells present.
	d := PlanGenerations(m, dd, df, Input{Radius: 0.1, Keywords: []string{"no-such-word-xyzzy"}})
	if !d.Empty() {
		t.Errorf("plan kept %d+%d data / %d+%d feature cells for an unknown keyword",
			len(d.Data), len(d.DeltaData), len(d.Features), len(d.DeltaFeatures))
	}
}

// buildColumnarManifest seals the same two-cluster corpus with tiny
// blocks, so cells split into many prunable units.
func buildColumnarManifest(t testing.TB, sealN, blockRecords int) *data.Manifest {
	t.Helper()
	dict := text.NewDict()
	return sealCut(twoClusters(sealN, dict), "t", dict, blockRecords)
}

// sealCut seals the partitions as resident blocks, then re-cuts every
// cell into blocks of blockRecords records and keeps only the zone maps:
// the seal sizes blocks from cell density, too coarse for block-level
// tests.
func sealCut(p *data.Partitions, prefix string, dict *text.Dict, blockRecords int) *data.Manifest {
	m, _ := p.SealBlocks(prefix, dict)
	for _, kind := range []struct {
		cells []data.CellStats
		parts []data.CellPart
	}{{m.Data, p.Data}, {m.Features, p.Features}} {
		for i, part := range kind.parts {
			kind.cells[i].Blocks = nil
			for lo := 0; lo < len(part.Objects); lo += blockRecords {
				_, bs := data.BuildBlock(part.Objects[lo:min(lo+blockRecords, len(part.Objects))], dict)
				kind.cells[i].Blocks = append(kind.cells[i].Blocks, bs)
			}
		}
	}
	return m
}

// TestPlanBlockGranularity: with block zone maps present, pruning refines
// below the cell — a selective query keeps cells but drops blocks inside
// them, and the block counters reconcile with the record selection.
func TestPlanBlockGranularity(t *testing.T) {
	// A coarse seal grid (2x2) with 8-record blocks: each cluster lands in
	// one cell of ~200 records split into ~25 blocks with tight bounds and
	// per-block blooms.
	m := buildColumnarManifest(t, 2, 8)
	d := PlanGenerations(m, nil, nil, Input{Radius: 0.01, Keywords: []string{"a3"}})
	if d.Empty() {
		t.Fatal("plan pruned everything for an in-vocabulary keyword")
	}
	if d.Stats.Blocks == 0 {
		t.Fatal("no block zone maps considered")
	}
	if d.Stats.BlocksPruned == 0 {
		t.Error("selective query pruned no blocks")
	}
	// Blocks of the "b" cluster must all be gone: keyword-disjoint feature
	// blocks, unreachable data blocks.
	for file, blocks := range d.Blocks {
		if len(blocks) == 0 {
			t.Errorf("surviving cell %s has an empty block selection", file)
		}
	}
	// Selected records must equal the records of surviving blocks exactly.
	var got int64
	lookup := make(map[string]data.CellStats)
	for _, cs := range append(append([]data.CellStats(nil), m.Data...), m.Features...) {
		lookup[cs.File] = cs
	}
	for _, cs := range append(append([]data.CellStats(nil), d.Data...), d.Features...) {
		sel, ok := d.Blocks[cs.File]
		if !ok {
			t.Fatalf("surviving columnar cell %s has no block selection", cs.File)
		}
		for _, bi := range sel {
			got += int64(lookup[cs.File].Blocks[bi].Records)
		}
	}
	if got != d.Stats.RecordsSelected {
		t.Errorf("surviving blocks hold %d records, Stats.RecordsSelected = %d", got, d.Stats.RecordsSelected)
	}
	// Block pruning must be at least as sharp as cell pruning: re-plan the
	// same corpus with one block per cell and compare the records read.
	coarse := PlanGenerations(buildManifest(t, 2), nil, nil, Input{Radius: 0.01, Keywords: []string{"a3"}})
	if d.Stats.RecordsSelected > coarse.Stats.RecordsSelected {
		t.Errorf("block-level selection (%d records) coarser than cell-level (%d)",
			d.Stats.RecordsSelected, coarse.Stats.RecordsSelected)
	}
	// Counters reconcile.
	c := d.Counters()
	if c[CounterBlocksScanned]+c[CounterBlocksPruned] != int64(d.Stats.Blocks) {
		t.Errorf("block counters %d+%d do not sum to %d blocks",
			c[CounterBlocksScanned], c[CounterBlocksPruned], d.Stats.Blocks)
	}
}

// TestPlanBlockCountersZeroWithoutZoneMaps: the block is the planner's
// only granule, so cells without zone maps (which no seal writes) offer
// nothing to select: no blocks, no selections, an empty plan.
func TestPlanBlockCountersZeroWithoutZoneMaps(t *testing.T) {
	m := buildManifest(t, 8)
	for _, cells := range [][]data.CellStats{m.Data, m.Features} {
		for i := range cells {
			cells[i].Blocks = nil
		}
	}
	d := PlanGenerations(m, nil, nil, Input{Radius: 0.05, Keywords: []string{"a1"}})
	if d.Stats.Blocks != 0 || d.Stats.BlocksPruned != 0 {
		t.Errorf("manifest without zone maps reported blocks: %+v", d.Stats)
	}
	if len(d.Blocks) != 0 || !d.Empty() {
		t.Errorf("manifest without zone maps produced block selections %v (empty plan: %v)", d.Blocks, d.Empty())
	}
}

// TestPlanEveryUnitIsABlock: base and delta cells alike are pruned block
// by block. Every unit — the index's for the base, the per-query cut for
// the delta — carries a block index inside its cell's zone maps, there is
// one unit per zone map, and every surviving cell, base or delta, comes
// back with its surviving block indices.
func TestPlanEveryUnitIsABlock(t *testing.T) {
	m := buildColumnarManifest(t, 2, 8)
	dd, df := buildDelta(m, 0.25, 0.25, "a", 600)
	ix := indexOf(m)
	zoneMaps := 0
	for _, c := range []struct {
		name  string
		cells []data.CellStats
		units []unit
	}{
		{"base data", m.Data, ix.data.units},
		{"base features", m.Features, ix.features.units},
		{"delta data", dd, ix.grid.fill(dd, explode(dd)).units},
		{"delta features", df, ix.grid.fill(df, explode(df)).units},
	} {
		n := 0
		for _, cs := range c.cells {
			n += len(cs.Blocks)
		}
		if len(c.units) != n {
			t.Fatalf("%s: %d units for %d zone maps", c.name, len(c.units), n)
		}
		for _, u := range c.units {
			if u.block < 0 || int(u.block) >= len(c.cells[u.cell].Blocks) || u.zone != &c.cells[u.cell].Blocks[u.block] {
				t.Fatalf("%s: unit %+v carries no block of its cell", c.name, u)
			}
		}
		zoneMaps += n
	}
	if len(dd) == 0 || len(df) == 0 || len(dd[0].Blocks) < 2 {
		t.Fatal("delta cells not cut into several blocks")
	}
	d := PlanGenerations(m, dd, df, Input{Radius: 0.01, Keywords: []string{"a3"}})
	if d.Stats.Blocks != zoneMaps {
		t.Errorf("planner considered %d blocks, want all %d zone maps", d.Stats.Blocks, zoneMaps)
	}
	if len(d.DeltaData) == 0 || len(d.DeltaFeatures) == 0 {
		t.Fatal("no delta cell survived a query on its own cluster")
	}
	var selected int64
	for _, cells := range [][]data.CellStats{d.Data, d.Features, d.DeltaData, d.DeltaFeatures} {
		for _, cs := range cells {
			sel := d.Blocks[cs.File]
			if len(sel) == 0 {
				t.Fatalf("surviving cell %s has no block selection", cs.File)
			}
			for _, bi := range sel {
				selected += int64(cs.Blocks[bi].Records)
			}
		}
	}
	if selected != d.Stats.RecordsSelected {
		t.Errorf("surviving blocks hold %d records, Stats.RecordsSelected = %d", selected, d.Stats.RecordsSelected)
	}
}

// scanPlan is the planner as it was before the per-generation index, kept
// as the oracle PlanGenerations must equal, Decision for Decision: it cuts
// every cell of both generations into units on every query, probes every
// feature unit's bloom word by word, and tests every unit against every
// other.
func scanPlan(m *data.Manifest, deltaData, deltaFeatures []data.CellStats, in Input) *Decision {
	d := &Decision{Stats: Stats{
		SealGridN:    m.Grid.N,
		DataCells:    len(m.Data) + len(deltaData),
		FeatureCells: len(m.Features) + len(deltaFeatures),
		RecordsTotal: m.TotalRecords(),
		DeltaCells:   len(deltaData) + len(deltaFeatures),
	}}
	for _, cs := range deltaData {
		d.Stats.DeltaRecords += int64(cs.Records)
	}
	for _, cs := range deltaFeatures {
		d.Stats.DeltaRecords += int64(cs.Records)
	}
	d.Stats.RecordsTotal += d.Stats.DeltaRecords

	allD := append(scanExplode(m.Data, false), scanExplode(deltaData, true)...)
	allF := append(scanExplode(m.Features, false), scanExplode(deltaFeatures, true)...)
	d.Stats.Blocks = len(allD) + len(allF)

	survF := make([]scanUnit, 0, len(allF))
	for _, fu := range allF {
		for _, w := range in.Keywords {
			if fu.bloom.MayContain(w) {
				survF = append(survF, fu)
				break
			}
		}
	}
	r2 := in.Radius * in.Radius
	survD := make([]scanUnit, 0, len(allD))
	for _, du := range allD {
		if scanWithinAny(du.bounds, survF, r2) {
			survD = append(survD, du)
		}
	}
	finalF := survF[:0]
	for _, fu := range survF {
		if scanWithinAny(fu.bounds, survD, r2) {
			finalF = append(finalF, fu)
		}
	}

	d.Blocks = make(map[string][]int)
	var selected int64
	d.Data, selected = scanRegroup(m.Data, survD, false, d.Blocks)
	d.Stats.RecordsSelected += selected
	d.Features, selected = scanRegroup(m.Features, finalF, false, d.Blocks)
	d.Stats.RecordsSelected += selected
	d.DeltaData, selected = scanRegroup(deltaData, survD, true, d.Blocks)
	d.Stats.RecordsSelected += selected
	d.Stats.DeltaRecordsSelected += selected
	d.DeltaFeatures, selected = scanRegroup(deltaFeatures, finalF, true, d.Blocks)
	d.Stats.RecordsSelected += selected
	d.Stats.DeltaRecordsSelected += selected
	d.Stats.BlocksPruned = d.Stats.Blocks - len(survD) - len(finalF)
	d.Stats.DataCellsPruned = d.Stats.DataCells - len(d.Data) - len(d.DeltaData)
	d.Stats.FeatureCellsPruned = d.Stats.FeatureCells - len(d.Features) - len(d.DeltaFeatures)
	d.Stats.DeltaCellsPruned = d.Stats.DeltaCells - len(d.DeltaData) - len(d.DeltaFeatures)
	return d
}

type scanUnit struct {
	cellIdx  int
	blockIdx int
	records  int
	bounds   geo.Rect
	bloom    data.KeywordBloom
	delta    bool
}

func scanExplode(cells []data.CellStats, delta bool) []scanUnit {
	out := make([]scanUnit, 0, len(cells))
	for i, cs := range cells {
		for bi, bs := range cs.Blocks {
			out = append(out, scanUnit{cellIdx: i, blockIdx: bi, records: bs.Records,
				bounds: bs.Bounds, bloom: bs.Keywords, delta: delta})
		}
	}
	return out
}

func scanRegroup(cells []data.CellStats, surv []scanUnit, delta bool, blocks map[string][]int) (kept []data.CellStats, records int64) {
	sel := make(map[int][]int, len(cells))
	for _, u := range surv {
		if u.delta != delta {
			continue
		}
		sel[u.cellIdx] = append(sel[u.cellIdx], u.blockIdx)
		records += int64(u.records)
	}
	for i, cs := range cells {
		bi, ok := sel[i]
		if !ok {
			continue
		}
		kept = append(kept, cs)
		sort.Ints(bi)
		blocks[cs.File] = bi
	}
	return kept, records
}

func scanWithinAny(b geo.Rect, units []scanUnit, r2 float64) bool {
	for _, u := range units {
		if geo.RectMinDist2(b, u.bounds) <= r2 {
			return true
		}
	}
	return false
}
