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
	// CounterDeltaRecordsSelected is the number of delta records in the
	// blocks the planner kept: the delta records the job read.
	CounterDeltaRecordsSelected = "spq.delta.records.selected"
	// CounterDeltaCellsPruned is the number of delta cells the planner
	// proved irrelevant.
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
	// Cells counts the delta's seal-grid cells — every query reads the
	// delta cut into column blocks over the seal grid — and CellsPruned
	// how many of them the planner skipped.
	Cells       int
	CellsPruned int
	// RecordsSelected is the number of delta records in the blocks the
	// planner kept: the delta records the job read.
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

	// The delta cut into column blocks over the base manifest's seal grid,
	// as one read selection per cell, every block, resident: the planner
	// narrows them like the manifest's. Built lazily, at most once per
	// snapshot, by the first query that reads the delta.
	once           sync.Once
	data, features []data.ColSel
}

// selections cuts the delta into column blocks over the manifest's seal
// grid, once: a SealBlocks seal of the delta, whose synthetic cell names
// ("delta-d0012.mem") cannot collide with the sealed ones.
func (d *deltaState) selections(m *data.Manifest, dict *text.Dict) (dataCells, features []data.ColSel) {
	d.once.Do(func() {
		cells, resident := data.PartitionObjects(m.Grid.Grid(), d.objs).SealBlocks("delta", dict)
		d.data, d.features = data.SelectAll(cells.Data), data.SelectAll(cells.Features)
		for _, sels := range [][]data.ColSel{d.data, d.features} {
			for i := range sels {
				sels[i].Resident = resident[sels[i].Cell.File]
			}
		}
	})
	return d.data, d.features
}
