package plan

import (
	"fmt"
	"math/rand"
	"slices"
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

// records sums the records of the selected blocks.
func records(sels []data.ColSel) int64 {
	var n int64
	for _, sel := range sels {
		if sel.Blocks == nil {
			n += int64(sel.Cell.Records)
		}
		for _, i := range sel.Blocks {
			n += int64(sel.Cell.Blocks[i].Records)
		}
	}
	return n
}

// runs cuts a decision's selections into its four runs: sealed data,
// delta data, sealed features and delta features, the last told apart by
// the resident blocks buildDelta's cells carry.
func runs(d *Decision) (sealedData, deltaData, sealedFeatures, deltaFeatures []data.ColSel) {
	f := d.Features()
	i := slices.IndexFunc(f, func(sel data.ColSel) bool { return sel.Resident != nil })
	if i < 0 {
		i = len(f)
	}
	return d.Cells[:d.SealedData], d.Cells[d.SealedData : d.SealedData+d.DeltaData], f[:i], f[i:]
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
	for _, sel := range d.Data() {
		if sel.Cell.Bounds.MinX > 0.5 {
			t.Errorf("data cell %d from cluster B survived", sel.Cell.Cell)
		}
	}
	for _, sel := range d.Features() {
		if !sel.Cell.Keywords.MayContain("a3") {
			t.Errorf("feature cell %d without the query keyword survived", sel.Cell.Cell)
		}
	}
	if got := records(d.Cells); got != d.Stats.RecordsSelected {
		t.Errorf("RecordsSelected = %d, cells sum to %d", d.Stats.RecordsSelected, got)
	}
	for _, sel := range d.Cells {
		if len(sel.Blocks) == 0 {
			t.Errorf("surviving cell %s lists no blocks", sel.Cell.File)
		}
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
			len(d.Data()), len(d.Features()))
	}
}

func TestPlanLargeRadiusKeepsEverythingRelevant(t *testing.T) {
	m := buildManifest(t, 16)
	// Radius spanning the whole space: distance pruning must keep every
	// data cell; keyword pruning still drops cluster B's feature cells.
	d := PlanGenerations(m, nil, nil, Input{Radius: 2, Keywords: []string{"a1"}})
	if len(d.Data()) != len(m.Data) {
		t.Errorf("kept %d of %d data cells under a space-covering radius", len(d.Data()), len(m.Data))
	}
	if len(d.Features()) >= len(m.Features) {
		t.Errorf("no feature cell pruned despite disjoint vocabulary")
	}
}

// buildDelta computes delta cell selections for a cluster around (cx, cy)
// with the given keyword vocabulary, cut into resident blocks over the
// manifest's seal grid exactly as the engine's delta is.
func buildDelta(m *data.Manifest, cx, cy float64, vocab string, n int) (dataCells, featureCells []data.ColSel) {
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
	delta, resident := data.PartitionObjects(m.Grid.Grid(), objs).SealBlocks("delta", dict)
	dataCells, featureCells = data.SelectAll(delta.Data), data.SelectAll(delta.Features)
	for _, sels := range [][]data.ColSel{dataCells, featureCells} {
		for i := range sels {
			sels[i].Resident = resident[sels[i].Cell.File]
		}
	}
	return dataCells, featureCells
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
	sd, sdd, sf, sdf := runs(d)
	if len(sf) != 0 {
		t.Errorf("%d base feature cells survived a delta-only keyword", len(sf))
	}
	if len(sdf) == 0 {
		t.Error("no delta feature cell survived its own keyword")
	}
	if d.Stats.DeltaCells != len(dd)+len(df) {
		t.Errorf("DeltaCells = %d, want %d", d.Stats.DeltaCells, len(dd)+len(df))
	}
	if d.Stats.DeltaRecords != records(dd)+records(df) {
		t.Errorf("DeltaRecords = %d, want %d", d.Stats.DeltaRecords, records(dd)+records(df))
	}
	if got := records(sdd) + records(sdf); got != d.Stats.DeltaRecordsSelected {
		t.Errorf("DeltaRecordsSelected = %d, delta cells sum to %d", d.Stats.DeltaRecordsSelected, got)
	}
	if got := records(sd) + records(sf) + d.Stats.DeltaRecordsSelected; got != d.Stats.RecordsSelected {
		t.Errorf("RecordsSelected = %d, survivors sum to %d", d.Stats.RecordsSelected, got)
	}
	// Surviving delta cells carry their block selections like sealed ones,
	// and their resident blocks come back out with them.
	for _, sel := range append(append([]data.ColSel(nil), sdd...), sdf...) {
		if len(sel.Blocks) == 0 || len(sel.Resident) != len(sel.Cell.Blocks) {
			t.Errorf("surviving delta cell %s selects blocks %v of %d resident", sel.Cell.File, sel.Blocks, len(sel.Resident))
		}
	}

	// An "a"-keyword query with a small radius keeps cluster A and prunes
	// the whole delta — base data cells must not be kept alive by
	// unreachable delta features.
	d = PlanGenerations(m, dd, df, Input{Radius: 0.02, Keywords: []string{"a3"}})
	_, sdd, _, sdf = runs(d)
	if len(sdf) != 0 {
		t.Errorf("%d delta feature cells survived keyword 'a3'", len(sdf))
	}
	if len(sdd) != 0 {
		t.Errorf("%d delta data cells survived with no reachable feature", len(sdd))
	}
	if d.Stats.DeltaCellsPruned != d.Stats.DeltaCells {
		t.Errorf("DeltaCellsPruned = %d, want all %d", d.Stats.DeltaCellsPruned, d.Stats.DeltaCells)
	}

	// Cross-generation reachability: a radius large enough to span the
	// space keeps base data cells alive through delta features alone.
	d = PlanGenerations(m, dd, df, Input{Radius: 2, Keywords: []string{"c1"}})
	if d.SealedData != len(m.Data) {
		t.Errorf("kept %d of %d base data cells; delta features should reach all", d.SealedData, len(m.Data))
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
		t.Errorf("plan kept %d data / %d feature cells for an unknown keyword",
			len(d.Data()), len(d.Features()))
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
	for _, sel := range d.Cells {
		if len(sel.Blocks) == 0 {
			t.Errorf("surviving cell %s has an empty block selection", sel.Cell.File)
		}
	}
	// Selected records must equal the records of surviving blocks exactly.
	if got := records(d.Cells); got != d.Stats.RecordsSelected {
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
	if len(d.Cells) != 0 || !d.Empty() {
		t.Errorf("manifest without zone maps produced block selections %v (empty plan: %v)", d.Cells, d.Empty())
	}
}

// TestPlanEveryUnitIsABlock: base and delta cells alike are pruned block
// by block. Every unit — the index's for the base, the per-query cut for
// the delta — carries a block index inside its cell's zone maps, there is
// one unit per zone map, and every surviving cell, base or delta, comes
// back with its surviving block indices, pointing at the entry it was
// handed in as: the manifest's own, or the delta's with its resident
// blocks.
func TestPlanEveryUnitIsABlock(t *testing.T) {
	m := buildColumnarManifest(t, 2, 8)
	dd, df := buildDelta(m, 0.25, 0.25, "a", 600)
	ix := indexOf(m)
	zoneMaps := 0
	for _, c := range []struct {
		name  string
		cells []data.ColSel
		units []unit
	}{
		{"base data", data.SelectAll(m.Data), ix.data.units},
		{"base features", data.SelectAll(m.Features), ix.features.units},
		{"delta data", dd, ix.grid.fill(dd, explode(dd)).units},
		{"delta features", df, ix.grid.fill(df, explode(df)).units},
	} {
		n := 0
		for _, sel := range c.cells {
			n += len(sel.Cell.Blocks)
		}
		if len(c.units) != n {
			t.Fatalf("%s: %d units for %d zone maps", c.name, len(c.units), n)
		}
		for _, u := range c.units {
			cs := c.cells[u.cell].Cell
			if u.block < 0 || int(u.block) >= len(cs.Blocks) || u.zone != &cs.Blocks[u.block] {
				t.Fatalf("%s: unit %+v carries no block of its cell", c.name, u)
			}
		}
		zoneMaps += n
	}
	if len(dd) == 0 || len(df) == 0 || len(dd[0].Cell.Blocks) < 2 {
		t.Fatal("delta cells not cut into several blocks")
	}
	d := PlanGenerations(m, dd, df, Input{Radius: 0.01, Keywords: []string{"a3"}})
	if d.Stats.Blocks != zoneMaps {
		t.Errorf("planner considered %d blocks, want all %d zone maps", d.Stats.Blocks, zoneMaps)
	}
	sd, sdd, sf, sdf := runs(d)
	if len(sdd) == 0 || len(sdf) == 0 {
		t.Fatal("no delta cell survived a query on its own cluster")
	}
	for _, r := range []struct {
		name   string
		kept   []data.ColSel
		handed []data.ColSel
	}{
		{"base data", sd, data.SelectAll(m.Data)},
		{"delta data", sdd, dd},
		{"base features", sf, data.SelectAll(m.Features)},
		{"delta features", sdf, df},
	} {
		for _, sel := range r.kept {
			if len(sel.Blocks) == 0 {
				t.Fatalf("surviving cell %s has no block selection", sel.Cell.File)
			}
			i := slices.IndexFunc(r.handed, func(h data.ColSel) bool { return h.Cell == sel.Cell })
			if i < 0 || !slices.Equal(sel.Resident, r.handed[i].Resident) {
				t.Fatalf("%s: surviving cell %s is not the entry handed in, or lost its resident blocks", r.name, sel.Cell.File)
			}
		}
	}
	if got := records(d.Cells); got != d.Stats.RecordsSelected {
		t.Errorf("surviving blocks hold %d records, Stats.RecordsSelected = %d", got, d.Stats.RecordsSelected)
	}
}

// scanPlan is the planner as it was before the per-generation index, kept
// as the oracle PlanGenerations must equal, Decision for Decision: it cuts
// every cell of both generations into units on every query, probes every
// feature unit's bloom word by word, and tests every unit against every
// other.
func scanPlan(m *data.Manifest, deltaData, deltaFeatures []data.ColSel, in Input) *Decision {
	baseData, baseFeatures := data.SelectAll(m.Data), data.SelectAll(m.Features)
	d := &Decision{Stats: Stats{
		SealGridN:    m.Grid.N,
		DataCells:    len(m.Data) + len(deltaData),
		FeatureCells: len(m.Features) + len(deltaFeatures),
		RecordsTotal: m.TotalRecords(),
		DeltaCells:   len(deltaData) + len(deltaFeatures),
	}}
	d.Stats.DeltaRecords = records(deltaData) + records(deltaFeatures)
	d.Stats.RecordsTotal += d.Stats.DeltaRecords

	allD := append(scanExplode(baseData, false), scanExplode(deltaData, true)...)
	allF := append(scanExplode(baseFeatures, false), scanExplode(deltaFeatures, true)...)
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

	d.Cells = scanRegroup([]data.ColSel{}, baseData, survD, false)
	d.SealedData = len(d.Cells)
	d.Cells = scanRegroup(d.Cells, deltaData, survD, true)
	d.DeltaData = len(d.Cells) - d.SealedData
	d.Cells = scanRegroup(d.Cells, baseFeatures, finalF, false)
	deltaFeatures0 := len(d.Cells)
	d.Cells = scanRegroup(d.Cells, deltaFeatures, finalF, true)
	d.Stats.RecordsSelected = records(d.Cells)
	d.Stats.DeltaRecordsSelected = records(d.Cells[d.SealedData:d.SealedData+d.DeltaData]) + records(d.Cells[deltaFeatures0:])
	d.Stats.BlocksPruned = d.Stats.Blocks - len(survD) - len(finalF)
	d.Stats.DataCellsPruned = d.Stats.DataCells - d.SealedData - d.DeltaData
	d.Stats.FeatureCellsPruned = d.Stats.FeatureCells - (len(d.Cells) - d.SealedData - d.DeltaData)
	d.Stats.DeltaCellsPruned = d.Stats.DeltaCells - d.DeltaData - (len(d.Cells) - deltaFeatures0)
	return d
}

type scanUnit struct {
	cellIdx  int
	blockIdx int
	bounds   geo.Rect
	bloom    data.KeywordBloom
	delta    bool
}

func scanExplode(cells []data.ColSel, delta bool) []scanUnit {
	out := make([]scanUnit, 0, len(cells))
	for i, sel := range cells {
		for bi, bs := range sel.Cell.Blocks {
			out = append(out, scanUnit{cellIdx: i, blockIdx: bi, bounds: bs.Bounds, bloom: bs.Keywords, delta: delta})
		}
	}
	return out
}

// scanRegroup appends the cells with a surviving unit to dst, each
// narrowed to its surviving blocks.
func scanRegroup(dst, cells []data.ColSel, surv []scanUnit, delta bool) []data.ColSel {
	kept := make(map[int][]int, len(cells))
	for _, u := range surv {
		if u.delta == delta {
			kept[u.cellIdx] = append(kept[u.cellIdx], u.blockIdx)
		}
	}
	for i, sel := range cells {
		if bi, ok := kept[i]; ok {
			sort.Ints(bi)
			sel.Blocks = bi
			dst = append(dst, sel)
		}
	}
	return dst
}

func scanWithinAny(b geo.Rect, units []scanUnit, r2 float64) bool {
	for _, u := range units {
		if geo.RectMinDist2(b, u.bounds) <= r2 {
			return true
		}
	}
	return false
}
