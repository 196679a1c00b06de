// Package plan is the cost- and pruning-based query planner over
// partition-aware sealed storage. The paper builds its grid at query time
// and therefore streams the entire dataset through every MapReduce job;
// this package consumes the zone maps of the seal-time manifest (package
// data) and of the delta, and the query q(k, r, W), to discard column
// blocks — and with all their blocks, whole cells — before the job starts:
//
//  1. Keyword pruning: a feature block whose keyword summary is disjoint
//     from W contains only features with w(f,q) = 0, which the Map phase
//     would drop anyway (Algorithm 1 line 9) — skip the block instead of
//     reading it.
//  2. Distance pruning of data blocks: a data block with no surviving
//     feature block within MINDIST r holds only objects with τ(p) = 0,
//     which are never reported — skip it.
//  3. Distance pruning of feature blocks: a surviving feature block with
//     no surviving data block within MINDIST r cannot influence any
//     reported object — skip it. (This cannot re-orphan a data block: if
//     the feature block were within r of a data block, that data block
//     would have survived step 2.)
//
// Both distance tests use the tight per-block bounding rectangles, not the
// cell rectangles.
//
// A sealed manifest never changes, so the planner does not re-read it per
// query: the first plan of a generation builds its index (index.go) and
// hangs it on the manifest (data.Manifest.Derive), where it lives and dies
// with the generation. The index holds the base's block units in manifest
// order and files them in a uniform bucket grid over their bounding box.
// Steps 2 and 3 test a unit only against the surviving units of the
// buckets within reach of it, base and delta alike (the delta's units are
// cut and filed per query), and the query's words are hashed once. The
// candidates are exact: the bucket mapping is monotone and clamped in
// float64 before it becomes an index, so two rectangles within r of each
// other always share a bucket range once one is widened by r — a hair
// more, against rounding — and the unchanged test RectMinDist2 <= r²
// decides each candidate. Every Decision is the scan's, to the digit.
//
// The planner only prunes: it never sizes the job. The query-time grid and
// the task counts are the engine's, the same for a planned query as for an
// unplanned one, so one data view per generation serves every query.
// Pruning never changes results: surviving blocks feed the unmodified
// query-time grid algorithms, so the top-k is identical to the unpruned
// path.
package plan

import "spq/internal/data"

// Planner counter names, merged into the job counters of a planned query
// so callers can observe pruning effectiveness next to the MapReduce
// counters they already read.
const (
	// CounterDataCellsPruned counts data cells skipped by distance pruning.
	CounterDataCellsPruned = "spq.plan.cells.data.pruned"
	// CounterFeatureCellsPruned counts feature cells skipped by keyword or
	// distance pruning.
	CounterFeatureCellsPruned = "spq.plan.cells.features.pruned"
	// CounterRecordsSkipped counts input records the job never read thanks
	// to pruning.
	CounterRecordsSkipped = "spq.plan.records.skipped"
	// CounterBlocksScanned and CounterBlocksPruned count the column blocks
	// — sealed and delta — the job read and skipped.
	CounterBlocksScanned = "spq.plan.blocks.scanned"
	CounterBlocksPruned  = "spq.plan.blocks.pruned"
)

// Input is what the planner knows about one query execution.
type Input struct {
	// Radius is the query radius r.
	Radius float64
	// Keywords is the query keyword set W, as strings (the manifest's
	// keyword summaries hash strings, not interned ids).
	Keywords []string
	// ReduceSlots is ignored: the planner sizes no job. It is kept only
	// for callers that still set it.
	ReduceSlots int
}

// Stats describes what the planner did, for reporting.
type Stats struct {
	// SealGridN is the seal grid edge size of the manifest.
	SealGridN int
	// DataCells and FeatureCells count the manifest's non-empty cells;
	// the *Pruned counts say how many of each the planner discarded.
	// Under PlanGenerations they count base and delta cells together.
	DataCells          int
	FeatureCells       int
	DataCellsPruned    int
	FeatureCellsPruned int
	// RecordsTotal and RecordsSelected count input records — base plus
	// delta — before and after pruning: RecordsSelected counts the records
	// of surviving blocks.
	RecordsTotal    int64
	RecordsSelected int64
	// Blocks counts the column-block zone maps the planner considered,
	// base and delta; BlocksPruned says how many it discarded — inside
	// surviving cells and as whole pruned cells alike. Blocks -
	// BlocksPruned blocks are actually read.
	Blocks       int
	BlocksPruned int
	// DeltaCells, DeltaCellsPruned, DeltaRecords and DeltaRecordsSelected
	// break out the delta's share of the counts above (all zero when the
	// plan had no delta).
	DeltaCells           int
	DeltaCellsPruned     int
	DeltaRecords         int64
	DeltaRecordsSelected int64
}

// Decision is the planner's output: the surviving cells and blocks.
type Decision struct {
	// Data and Features are the surviving sealed-base manifest entries.
	Data     []data.CellStats
	Features []data.CellStats
	// DeltaData and DeltaFeatures are the surviving delta cells (see
	// PlanGenerations), as the caller handed them in.
	DeltaData     []data.CellStats
	DeltaFeatures []data.CellStats
	// Blocks maps every surviving cell, base and delta, to the ascending
	// indices of its surviving blocks: the planner prunes individual
	// column blocks the same three ways it prunes cells, so a surviving
	// cell is often read only partially. Base and delta cell names must
	// not collide.
	Blocks map[string][]int
	// Stats describes the pruning outcome.
	Stats Stats
}

// Empty reports whether the plan proves the query returns no results
// (every data cell or every feature cell pruned, across base and delta):
// the job can be skipped entirely.
func (d *Decision) Empty() bool {
	return len(d.Data)+len(d.DeltaData) == 0 || len(d.Features)+len(d.DeltaFeatures) == 0
}

// Counters renders the pruning outcome as job-counter deltas.
func (d *Decision) Counters() map[string]int64 {
	return map[string]int64{
		CounterDataCellsPruned:    int64(d.Stats.DataCellsPruned),
		CounterFeatureCellsPruned: int64(d.Stats.FeatureCellsPruned),
		CounterRecordsSkipped:     d.Stats.RecordsTotal - d.Stats.RecordsSelected,
		CounterBlocksScanned:      int64(d.Stats.Blocks - d.Stats.BlocksPruned),
		CounterBlocksPruned:       int64(d.Stats.BlocksPruned),
	}
}

// PlanGenerations prunes the union of the sealed base manifest and the
// in-memory delta cell sets against the query. The delta cells describe
// records appended after the base generation sealed, cut into column
// blocks over the same seal grid with zone maps like the manifest's (the
// engine builds them on the fly). Pruning is performed jointly — a base
// data block survives if any feature block of either generation is within
// reach, and vice versa — so results over base+delta are identical to a
// hypothetical re-seal of everything. The granule is the column block,
// not the cell: a surviving cell may be read only partially.
//
// The base's units and buckets come from the manifest's index, built on
// its first plan; only the delta's are cut per query.
func PlanGenerations(m *data.Manifest, deltaData, deltaFeatures []data.CellStats, in Input) *Decision {
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

	ix := indexOf(m)
	dd, df := ix.grid.fill(deltaData, explode(deltaData)), ix.grid.fill(deltaFeatures, explode(deltaFeatures))
	dataL, featL := []*layer{&ix.data, &dd}, []*layer{&ix.features, &df}
	keepD := [2][]bool{make([]bool, len(dataL[0].units)), make([]bool, len(dataL[1].units))}
	keepF := [2][]bool{make([]bool, len(featL[0].units)), make([]bool, len(featL[1].units))}
	d.Stats.Blocks = len(keepD[0]) + len(keepD[1]) + len(keepF[0]) + len(keepF[1])

	// 1. Keyword pruning of feature units.
	probe := data.NewKeywordProbe(in.Keywords)
	for s, l := range featL {
		for i, u := range l.units {
			keepF[s][i] = u.zone.Keywords.MayContainAny(probe)
		}
	}

	// 2. Distance pruning of data units against surviving feature units.
	r2 := in.Radius * in.Radius
	reach := reachOf(r2)
	survivors := 0
	for s, l := range dataL {
		for i, u := range l.units {
			keepD[s][i] = ix.grid.near(u.bounds, reach, r2, featL, keepF[:])
			if keepD[s][i] {
				survivors++
			}
		}
	}

	// 3. Distance pruning of feature units against surviving data units.
	// (This cannot re-orphan a data unit: had the feature unit been within
	// r of a data unit, that data unit would have survived step 2.)
	for s, l := range featL {
		for i, u := range l.units {
			keepF[s][i] = keepF[s][i] && ix.grid.near(u.bounds, reach, r2, dataL, keepD[:])
			if keepF[s][i] {
				survivors++
			}
		}
	}

	d.Blocks = make(map[string][]int, dataL[0].keptCells(keepD[0])+dataL[1].keptCells(keepD[1])+
		featL[0].keptCells(keepF[0])+featL[1].keptCells(keepF[1]))
	sel := make([]int, 0, survivors)
	var selected int64
	d.Data, selected, sel = dataL[0].regroup(keepD[0], d.Blocks, sel)
	d.Stats.RecordsSelected += selected
	d.Features, selected, sel = featL[0].regroup(keepF[0], d.Blocks, sel)
	d.Stats.RecordsSelected += selected
	d.DeltaData, selected, sel = dataL[1].regroup(keepD[1], d.Blocks, sel)
	d.Stats.RecordsSelected += selected
	d.Stats.DeltaRecordsSelected += selected
	d.DeltaFeatures, selected, _ = featL[1].regroup(keepF[1], d.Blocks, sel)
	d.Stats.RecordsSelected += selected
	d.Stats.DeltaRecordsSelected += selected
	d.Stats.BlocksPruned = d.Stats.Blocks - survivors
	d.Stats.DataCellsPruned = d.Stats.DataCells - len(d.Data) - len(d.DeltaData)
	d.Stats.FeatureCellsPruned = d.Stats.FeatureCells - len(d.Features) - len(d.DeltaFeatures)
	d.Stats.DeltaCellsPruned = d.Stats.DeltaCells - len(d.DeltaData) - len(d.DeltaFeatures)
	return d
}
