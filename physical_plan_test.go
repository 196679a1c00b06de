package spq

import (
	"fmt"
	"reflect"
	"testing"

	"spq/internal/core"
	"spq/internal/plan"
)

// TestPlanQuery pins the planning step over every storage format, with and
// without a visible delta, in-process and distributed:
//
//   - pruning off (no WithAutoPlan) selects exactly the manifest's files —
//     every cell and every block on columnar storage — reads the whole
//     delta, never partitions it, and reports no planner statistics;
//   - the data view is used by delta-free in-process columnar queries only;
//   - an unplanned query runs the planner's slot-derived reduce-task count,
//     not one task per query-grid cell, unless WithReducers overrides it.
func TestPlanQuery(t *testing.T) {
	storages := []struct {
		name     string
		storage  Storage
		columnar bool
	}{
		{"spq3", StorageDFSBinary, true},
		{"memory", StorageMemory, false},
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
					planQ := func(opts ...QueryOption) *physicalPlan {
						t.Helper()
						qc := queryConfig{alg: core.ESPQSco}
						for _, opt := range opts {
							opt(&qc)
						}
						p, err := e.planQuery(snap, q, &qc)
						if err != nil {
							t.Fatal(err)
						}
						return p
					}

					p := planQ()
					if want := st.columnar && !withDelta && !distributed; p.useView != want {
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
					if st.columnar {
						if p.files != nil || p.segIO == nil {
							t.Errorf("columnar plan: files=%v segIO=%v", p.files, p.segIO)
						}
						var cells []string
						for _, sel := range p.colsData {
							if sel.Blocks != nil {
								t.Errorf("data cell %s narrowed to blocks %v without pruning", sel.Cell.File, sel.Blocks)
							}
							cells = append(cells, sel.Cell.File)
						}
						for _, sel := range p.colsFeat {
							if sel.Blocks != nil {
								t.Errorf("feature cell %s narrowed to blocks %v without pruning", sel.Cell.File, sel.Blocks)
							}
							cells = append(cells, sel.Cell.File)
						}
						if !reflect.DeepEqual(cells, snap.manifest.Files()) {
							t.Errorf("block selection covers %v, want every manifest cell %v", cells, snap.manifest.Files())
						}
					} else {
						if !reflect.DeepEqual(p.files, snap.manifest.Files()) {
							t.Errorf("files = %v, want the manifest's %v", p.files, snap.manifest.Files())
						}
						if p.colsData != nil || p.colsFeat != nil || p.segIO != nil {
							t.Errorf("whole-file plan carries a block selection or segment meter")
						}
					}
					if withDelta {
						if p.deltaStats.Records != 1 || p.deltaStats.RecordsSelected != 1 || p.deltaStats.Cells != 0 {
							t.Errorf("delta stats = %+v, want the whole 1-record delta, unpartitioned", p.deltaStats)
						}
						if snap.delta.view != nil {
							t.Error("unplanned query partitioned the delta")
						}
						// Opting out of the delta restores the delta-free plan.
						if pd := planQ(WithDelta(false)); pd.useView != (st.columnar && !distributed) || pd.deltaStats.Records != 0 {
							t.Errorf("WithDelta(false): useView=%v delta=%+v", pd.useView, pd.deltaStats)
						}
						// A planned query partitions it, once.
						if pp := planQ(WithAutoPlan()); pp.planStats == nil || pp.deltaStats.Cells != 1 || snap.delta.view == nil {
							t.Errorf("planned query: stats=%+v delta=%+v view=%v", pp.planStats, pp.deltaStats, snap.delta.view)
						}
					} else if p.deltaStats.Records != 0 || p.counters != nil {
						t.Errorf("delta-free unplanned plan: delta=%+v counters=%v", p.deltaStats, p.counters)
					}
				})
			}
		}
	}
}
