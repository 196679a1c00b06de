package spq

import (
	"fmt"
	"reflect"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/mapreduce"
	"spq/internal/plan"
)

// TestPlanQuery pins the planning step over both storage modes, with and
// without a visible delta, in-process and distributed:
//
//   - pruning off (no WithAutoPlan) selects every block of every sealed and
//     delta cell, and reports no planner statistics;
//   - both storages plan alike: the data view is used by delta-free
//     in-process queries, resident blocks (memory storage, the delta)
//     travel with the selection, and only SPQ3 meters segment reads;
//   - the delta is cut into blocks at most once per snapshot, by the first
//     query that reads it, planned or not;
//   - an unplanned query runs the planner's slot-derived reduce-task count,
//     not one task per query-grid cell, unless WithReducers overrides it;
//   - a distributed engine ships a job only when every block is stored:
//     memory storage and delta blocks run in-process, metered as
//     spq.exec.fallback.local.
func TestPlanQuery(t *testing.T) {
	storages := []struct {
		name    string
		storage Storage
	}{
		{"spq3", StorageDFSBinary},
		{"memory", StorageMemory},
	}
	q := Query{K: 3, Radius: 0.05, Keywords: []string{"common1"}}
	for _, st := range storages {
		for _, distributed := range []bool{false, true} {
			for _, withDelta := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/distributed=%v/delta=%v", st.name, distributed, withDelta), func(t *testing.T) {
					cfg := Config{Storage: st.storage, Nodes: 4, CompactAfter: -1}
					if distributed {
						cfg.Workers = distWorkers(t, 1, 1)
					}
					e := NewEngine(cfg)
					t.Cleanup(func() { e.Close() })
					loadClusteredCorpus(t, e, 600, 4)
					if err := e.Seal(); err != nil {
						t.Fatal(err)
					}
					if withDelta {
						if err := e.AddFeature(Feature{ID: 1 << 40, X: 0.5, Y: 0.5, Keywords: q.Keywords}); err != nil {
							t.Fatal(err)
						}
					}
					snap := e.snap.Load()
					if withDelta && snap.delta.cells != nil {
						t.Fatal("delta cut into blocks before any query read it")
					}
					planQ := func(opts ...QueryOption) *physicalPlan {
						t.Helper()
						qc := queryConfig{alg: core.ESPQSco}
						for _, opt := range opts {
							opt(&qc)
						}
						return e.planQuery(snap, q, &qc)
					}

					p := planQ()
					if want := !withDelta && !distributed; p.useView != want {
						t.Errorf("useView = %v, want %v", p.useView, want)
					}
					if p.empty || p.planStats != nil || p.priority {
						t.Errorf("unplanned query carries planner output: empty=%v stats=%+v priority=%v", p.empty, p.planStats, p.priority)
					}
					if want := plan.ChooseReducers(defaultGridN, e.cfg.ReduceSlots); p.gridN != defaultGridN || p.reducers != want || want >= defaultGridN*defaultGridN {
						t.Errorf("unplanned grid %d with %d reducers, want grid %d with the slot-derived %d (fewer than its cells)",
							p.gridN, p.reducers, defaultGridN, want)
					}
					if pr := planQ(WithReducers(3)); pr.reducers != 3 {
						t.Errorf("WithReducers(3): %d reducers", pr.reducers)
					}
					if (p.wire != nil) != distributed {
						t.Errorf("wire info = %v on a distributed=%v engine", p.wire, distributed)
					}
					if (p.segIO != nil) != (st.storage == StorageDFSBinary) {
						t.Errorf("segment meter = %v on %s storage", p.segIO, st.name)
					}

					// Every block of every cell: base data, delta data, base
					// features, delta features.
					var want, got []string
					nDelta := len(deltaCellsOf(snap, false)) + len(deltaCellsOf(snap, true))
					for _, cells := range [][]data.CellStats{snap.manifest.Data, deltaCellsOf(snap, false), snap.manifest.Features, deltaCellsOf(snap, true)} {
						for _, cs := range cells {
							want = append(want, cs.File)
						}
					}
					for _, sel := range append(append([]data.ColSel(nil), p.colsData...), p.colsFeat...) {
						if sel.Blocks != nil {
							t.Errorf("cell %s narrowed to blocks %v without pruning", sel.Cell.File, sel.Blocks)
						}
						inDelta := snap.delta != nil && snap.delta.resident[sel.Cell.File] != nil
						if resident := sel.Resident != nil; resident != (st.storage == StorageMemory || inDelta) {
							t.Errorf("cell %s: resident blocks = %v on %s storage (delta cell: %v)", sel.Cell.File, resident, st.name, inDelta)
						}
						got = append(got, sel.Cell.File)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("block selection covers %v, want every cell %v", got, want)
					}

					if withDelta {
						cells := snap.delta.cells
						if p.deltaStats.Records != 1 || p.deltaStats.RecordsSelected != 1 || p.deltaStats.Cells != nDelta || nDelta != 1 {
							t.Errorf("delta stats = %+v, want the whole 1-record delta in its one cell", p.deltaStats)
						}
						// Opting out of the delta restores the delta-free plan.
						if pd := planQ(WithDelta(false)); pd.useView != !distributed || pd.deltaStats.Records != 0 {
							t.Errorf("WithDelta(false): useView=%v delta=%+v", pd.useView, pd.deltaStats)
						}
						// A planned query reads the same blocks: they are not
						// cut again.
						if pp := planQ(WithAutoPlan()); pp.planStats == nil || pp.deltaStats.Cells != 1 || snap.delta.cells != cells {
							t.Errorf("planned query: stats=%+v delta=%+v, blocks rebuilt: %v", pp.planStats, pp.deltaStats, snap.delta.cells != cells)
						}
					} else if p.deltaStats.Records != 0 || p.counters != nil {
						t.Errorf("delta-free unplanned plan: delta=%+v counters=%v", p.deltaStats, p.counters)
					}

					if distributed {
						rep, err := e.QueryReport(q, WithCache(false))
						if err != nil {
							t.Fatal(err)
						}
						local := rep.Counters[mapreduce.CounterExecFallbackLocal] > 0
						if want := st.storage == StorageMemory || withDelta; local != want {
							t.Errorf("job ran locally = %v, want %v", local, want)
						}
					}
				})
			}
		}
	}
}

// deltaCellsOf returns the snapshot's delta cells of one kind, or none
// when the delta is empty or not yet cut into blocks.
func deltaCellsOf(s *snapshot, features bool) []data.CellStats {
	if s.delta == nil || s.delta.cells == nil {
		return nil
	}
	if features {
		return s.delta.cells.Features
	}
	return s.delta.cells.Data
}
