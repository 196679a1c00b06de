package spq

// Generational ingestion. A sealed engine is no longer write-once:
// AddData/AddFeature/LoadLines/LoadSynthetic on a sealed engine append
// into an in-memory delta (LSM-style), queries merge the sealed base with
// the delta, and Compact — explicit or automatic via Config.CompactAfter —
// re-seals base+delta into a new storage generation. Every committed
// append batch and every compaction bumps the engine's generation, which
// keys the query cache: a report computed against an older generation can
// never be served to a query running against a newer one.

import (
	"sync"

	"spq/internal/data"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// Per-report delta counters, present whenever the engine was serving a
// non-empty delta (records appended after the last seal or compaction)
// when the query executed; documented next to the spq.plan.* and
// spq.sched.* counters in the README.
const (
	// CounterDeltaRecords is the number of delta records visible to the
	// query before any pruning.
	CounterDeltaRecords = "spq.delta.records"
	// CounterDeltaRecordsSelected is the number of delta records the job
	// actually read (equal to CounterDeltaRecords unless the planner
	// pruned delta cells).
	CounterDeltaRecordsSelected = "spq.delta.records.selected"
	// CounterDeltaCellsPruned is the number of delta cells the planner
	// proved irrelevant (planned queries only).
	CounterDeltaCellsPruned = "spq.delta.cells.pruned"
)

// DefaultCompactAfter is the default automatic-compaction threshold, in
// delta records; see Config.CompactAfter.
const DefaultCompactAfter = 1 << 16

// DeltaStats describes the in-memory delta's participation in one query
// execution.
type DeltaStats struct {
	// Generation is the storage generation the query was served from. It
	// increases on every seal, committed append batch and compaction.
	Generation uint64
	// Records is the number of delta records visible to the query (0 when
	// the engine had no uncompacted appends, or under WithDelta(false)).
	Records int64
	// Cells and CellsPruned count the delta's seal-grid cells and how many
	// the planner skipped. Only planned queries (WithAutoPlan) partition
	// the delta; both are 0 otherwise.
	Cells       int
	CellsPruned int
	// RecordsSelected is the number of delta records the job read after
	// pruning (equal to Records for unplanned queries).
	RecordsSelected int64
}

// deltaState is the immutable query-side view of the records appended
// after the snapshot's base generation sealed. objs is a fixed-length
// prefix of the engine's append-order delta slice: the engine only ever
// appends past every published length (under e.mu), and the atomic
// snapshot publication orders those writes before any reader's loads, so
// queries iterate objs without locks or copies.
type deltaState struct {
	objs []data.Object

	// view is the planner-facing partitioned form, built lazily — at most
	// once per snapshot — the first time a planned query needs per-cell
	// pruning. Unplanned queries never pay for it.
	once sync.Once
	view *deltaView
}

// deltaView is the delta partitioned over the base manifest's seal grid,
// with per-cell statistics mirroring the manifest's: the on-the-fly
// equivalent of a seal, minus the storage writes. Cell names are synthetic
// ("delta-d0012") and resolve through layout into sub-slices of ordered.
type deltaView struct {
	ordered      []data.Object
	layout       map[string]memRange
	dataCells    []data.CellStats
	featureCells []data.CellStats
}

// buildView partitions the delta over the manifest's seal grid, once.
func (d *deltaState) buildView(m *data.Manifest, dict *text.Dict) *deltaView {
	d.once.Do(func() {
		parts := data.PartitionObjects(m.Grid.Grid(), d.objs)
		dataCells, featureCells, ordered := parts.CellView("delta", dict)
		d.view = &deltaView{
			ordered:      ordered,
			layout:       cellLayout(dataCells, featureCells),
			dataCells:    dataCells,
			featureCells: featureCells,
		}
	})
	return d.view
}

// cellLayout maps each cell name to its index range in the cell-ordered
// object layout (data cells first, then feature cells — the order CellView
// and SealMemory lay objects out in). Shared by the sealed memory layout
// and the delta view, whose ranges memoryChunks consumes interchangeably.
func cellLayout(dataCells, featureCells []data.CellStats) map[string]memRange {
	layout := make(map[string]memRange, len(dataCells)+len(featureCells))
	off := 0
	for _, cs := range dataCells {
		layout[cs.File] = memRange{lo: off, hi: off + cs.Records}
		off += cs.Records
	}
	for _, cs := range featureCells {
		layout[cs.File] = memRange{lo: off, hi: off + cs.Records}
		off += cs.Records
	}
	return layout
}

// memoryChunks builds an in-memory source over the selected partitions of
// a cell-ordered object layout. Partitions are contiguous sub-slices;
// adjacent selections are merged and then re-split into roughly target
// chunks, so no object is ever copied and an unpruned selection still gets
// a handful of big splits rather than one per cell. Shared by the sealed
// memory-mode layout and the delta view.
func memoryChunks(objs []data.Object, layout map[string]memRange, files []string, target int) *mapreduce.MemorySource[data.Object] {
	var runs []memRange
	total := 0
	for _, f := range files {
		r, ok := layout[f]
		if !ok {
			continue
		}
		total += r.hi - r.lo
		if n := len(runs); n > 0 && runs[n-1].hi == r.lo {
			runs[n-1].hi = r.hi
		} else {
			runs = append(runs, r)
		}
	}
	src := &mapreduce.MemorySource[data.Object]{}
	if total == 0 {
		return src
	}
	if target < 1 {
		target = 1
	}
	chunkSize := (total + target - 1) / target
	for _, r := range runs {
		for lo := r.lo; lo < r.hi; lo += chunkSize {
			hi := lo + chunkSize
			if hi > r.hi {
				hi = r.hi
			}
			src.Chunks = append(src.Chunks, objs[lo:hi])
		}
	}
	return src
}
