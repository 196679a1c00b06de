package spq

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/mapreduce"
)

// TestPlanQuery pins the planning step, with and without a visible delta,
// in-process and distributed:
//
//   - pruning off (no WithAutoPlan) selects every block of every sealed and
//     delta cell, and reports no planner statistics;
//   - no sealed data block is in the source: the engine's data view serves
//     them to every job that runs in-process, delta or not, and only the
//     delta's blocks travel resident with the selection;
//   - a distributed engine ships a job whose every selected block is
//     stored (no delta block) with the generation's block list, so its
//     workers serve the sealed data from their own views; any other job
//     runs in-process, metered as spq.exec.fallback.local;
//   - a Config.Storage other than StorageDFSBinary is a configuration
//     error every query reports, and the engine attaches no worker;
//   - two planned queries with disjoint keywords at one grid share one
//     view;
//   - the delta is cut into blocks at most once per snapshot, by the first
//     query that reads it, planned or not;
//   - every query, planned or not, runs on the default grid unless WithGrid
//     sets it: the planner prunes but never sizes the job;
//   - an in-process job runs the slot-derived reduce-task count, not one
//     task per query-grid cell, unless WithReducers overrides it, and the
//     planner's report names the grid and count that run.
func TestPlanQuery(t *testing.T) {
	q := Query{K: 3, Radius: 0.05, Keywords: []string{"common1"}}
	for _, distributed := range []bool{false, true} {
		t.Run(fmt.Sprintf("storage=1/distributed=%v", distributed), func(t *testing.T) {
			cfg := Config{Storage: Storage(1), Nodes: 4, CompactAfter: -1}
			masters := masterGoroutines()
			if distributed {
				cfg.Workers = distWorkers(t, 1, 1)
			}
			e := NewEngine(cfg)
			t.Cleanup(func() { e.Close() })
			loadClusteredCorpus(t, e, 600, 4)
			// The check runs before any worker is attached, so none is
			// left connected.
			if _, err := e.Query(q); err == nil || !strings.Contains(err.Error(), "unknown storage") {
				t.Errorf("Storage(1): err = %v, want a configuration error", err)
			}
			if e.Distributed() || e.Workers() != nil || masterGoroutines() > masters {
				t.Errorf("Storage(1) attached %v (master goroutines %d, %d before)", e.Workers(), masterGoroutines(), masters)
			}
		})
	}
	for _, distributed := range []bool{false, true} {
		for _, withDelta := range []bool{false, true} {
			t.Run(fmt.Sprintf("spq3/distributed=%v/delta=%v", distributed, withDelta), func(t *testing.T) {
				cfg := Config{Nodes: 4, CompactAfter: -1}
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

				// Whether a job ships with its block list: the engine has
				// workers, and no delta block is selected.
				ships := func(delta bool) bool { return distributed && !delta }
				p := planQ()
				if (p.wire != nil) != ships(withDelta) {
					t.Errorf("wire = %+v on a distributed=%v engine, delta=%v", p.wire, distributed, withDelta)
				}
				if p.wire != nil && !data.IsBlockListFile(p.wire.DataBlocks) {
					t.Errorf("shipped job names %q, not a block list", p.wire.DataBlocks)
				}
				// A shipped job runs one map and one reduce task per worker
				// lane: here one worker of one slot. An in-process job gets
				// a few map tasks per map slot and the slot-derived reducer
				// count, fewer than its cells.
				wantMaps, wantReducers := 4*e.cfg.MapSlots, chooseReducers(defaultGridN, e.cfg.ReduceSlots)
				if p.wire != nil {
					wantMaps, wantReducers = 1, 1
				}
				if p.src == nil {
					t.Fatal("plan without a source")
				} else if splits, err := p.src.Splits(); err != nil {
					t.Fatal(err)
				} else {
					if len(splits) > wantMaps || len(splits) == 0 {
						t.Errorf("%d map splits, want 1 to %d", len(splits), wantMaps)
					}
					var in, feats int
					for _, sp := range splits {
						in += sp.(mapreduce.CountedSplit).Records()
					}
					for _, sel := range p.colsFeat {
						feats += sel.Cell.Records
					}
					if nDeltaData := len(deltaCellsOf(snap, false)); in != feats || nDeltaData != 0 {
						t.Errorf("the source yields %d records, want the %d selected feature records (delta data cells: %d)", in, feats, nDeltaData)
					}
				}
				if p.empty || p.planStats != nil {
					t.Errorf("unplanned query carries planner output: empty=%v stats=%+v", p.empty, p.planStats)
				}
				if p.gridN != defaultGridN || p.reducers != wantReducers || wantReducers >= defaultGridN*defaultGridN {
					t.Errorf("unplanned grid %d with %d reducers, want grid %d with %d (fewer than its cells)",
						p.gridN, p.reducers, defaultGridN, wantReducers)
				}
				if pr := planQ(WithReducers(3)); pr.reducers != 3 {
					t.Errorf("WithReducers(3): %d reducers", pr.reducers)
				}
				// A planned query runs on the grid an unplanned one runs on,
				// or on WithGrid's, and the planner's report names the grid
				// and the reducer count that run.
				for _, gridN := range []int{0, 7} {
					opts := []QueryOption{WithAutoPlan()}
					wantGrid := defaultGridN
					if gridN > 0 {
						opts, wantGrid = append(opts, WithGrid(gridN)), gridN
						if pu := planQ(WithGrid(gridN)); pu.gridN != gridN {
							t.Errorf("unplanned WithGrid(%d): grid %d", gridN, pu.gridN)
						}
					}
					pp := planQ(opts...)
					wantPlanned := chooseReducers(wantGrid, e.cfg.ReduceSlots)
					if pp.wire != nil {
						wantPlanned = 1
					}
					if pp.gridN != wantGrid || pp.reducers != wantPlanned || pp.planStats == nil ||
						pp.planStats.GridN != pp.gridN || pp.planStats.NumReducers != pp.reducers {
						t.Errorf("planned, WithGrid(%d): grid %d with %d reducers, reported %+v, want grid %d with %d",
							gridN, pp.gridN, pp.reducers, pp.planStats, wantGrid, wantPlanned)
					}
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
					if resident := sel.Resident != nil; resident != inDelta {
						t.Errorf("cell %s: resident blocks = %v (delta cell: %v)", sel.Cell.File, resident, inDelta)
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
					// Opting out of the delta drops only the delta.
					if pd := planQ(WithDelta(false)); (pd.wire != nil) != ships(false) || pd.deltaStats.Records != 0 {
						t.Errorf("WithDelta(false): wire=%+v delta=%+v", pd.wire, pd.deltaStats)
					}
					// A planned query reads the same blocks: they are not
					// cut again.
					if pp := planQ(WithAutoPlan()); pp.planStats == nil || pp.deltaStats.Cells != 1 || snap.delta.cells != cells {
						t.Errorf("planned query: stats=%+v delta=%+v, blocks rebuilt: %v", pp.planStats, pp.deltaStats, snap.delta.cells != cells)
					}
				} else if p.deltaStats.Records != 0 || p.counters != nil {
					t.Errorf("delta-free unplanned plan: delta=%+v counters=%v", p.deltaStats, p.counters)
				}

				if !distributed {
					var views []int64
					for _, kw := range []string{"common1", "c0-kw7"} {
						rep, err := e.QueryReport(Query{K: 3, Radius: 0.05, Keywords: []string{kw}}, WithAutoPlan(), WithGrid(8), WithCache(false))
						if err != nil {
							t.Fatal(err)
						}
						views = append(views, rep.Counters[CounterViewMiss], rep.Counters[CounterViewHit])
					}
					if want := []int64{1, 0, 0, 1}; !reflect.DeepEqual(views, want) {
						t.Errorf("view miss/hit of two planned queries at one grid = %v, want %v", views, want)
					}
				}
				if distributed {
					rep, err := e.QueryReport(q, WithCache(false))
					if err != nil {
						t.Fatal(err)
					}
					if local := rep.Counters[mapreduce.CounterExecFallbackLocal] > 0; local != withDelta {
						t.Errorf("job ran locally = %v, want %v", local, withDelta)
					}
				}
			})
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

// TestDataViewSharedAcrossQueries pins the view cache key and its
// counters: 60 planned queries with pairwise disjoint keywords and
// different radii, on one base generation at one grid, build its data
// view once — exactly one spq.view.miss, 59 spq.view.hit — while another
// grid size builds its own. An append keeps the base generation, so the
// view stays shared with the delta overlaid; a compaction retires it.
func TestDataViewSharedAcrossQueries(t *testing.T) {
	dataObjs, feats := clusteredCorpus(2000, 4)
	e := NewEngine(Config{Nodes: 4, QueryCache: -1, CompactAfter: -1})
	t.Cleanup(func() { e.Close() })
	if err := e.AddData(dataObjs...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats...); err != nil {
		t.Fatal(err)
	}
	view := func(kw string, r float64, gridN int) (miss, hit int64) {
		t.Helper()
		rep, err := e.QueryReport(Query{K: 3, Radius: r, Keywords: []string{kw}}, WithAutoPlan(), WithGrid(gridN))
		if err != nil {
			t.Fatal(err)
		}
		miss, hit = rep.Counters[CounterViewMiss], rep.Counters[CounterViewHit]
		if miss+hit != 1 {
			t.Fatalf("%s at grid %d: spq.view.miss=%d spq.view.hit=%d, want exactly one of them", kw, gridN, miss, hit)
		}
		return miss, hit
	}
	var misses, hits int64
	for i := 0; i < 60; i++ {
		miss, hit := view(fmt.Sprintf("c%d-kw%d", i%4, i/4), 0.02+0.001*float64(i), 8)
		misses, hits = misses+miss, hits+hit
	}
	if misses != 1 || hits != 59 {
		t.Errorf("60 planned queries at one grid: %d view misses and %d hits, want 1 and 59", misses, hits)
	}
	if miss, _ := view("c0-kw0", 0.05, 9); miss != 1 {
		t.Error("a query at another grid size shared a view")
	}

	// The appended record sits on an existing data object, so neither the
	// bounds nor the grid move.
	at := dataObjs[0]
	if err := e.AddData(DataObject{ID: 1 << 40, X: at.X, Y: at.Y}); err != nil {
		t.Fatal(err)
	}
	if _, hit := view("c1-kw3", 0.05, 8); hit != 1 {
		t.Error("an append made the next query rebuild the base generation's view")
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if miss, _ := view("c1-kw3", 0.05, 8); miss != 1 {
		t.Error("a compacted generation reused the previous generation's view")
	}
}

// TestConcurrentPlannedQueriesOverlayDelta runs planned queries
// concurrently over one shared data view while a delta is visible whose
// data records land in view-seeded groups, for every algorithm × scoring
// mode pair. Run it under -race: a group writing view memory that another
// reads is a reported race (internal/core's TestDataViewMemoryNeverWritten
// also checksums the view). Every result must equal the same engine's
// after compaction, where the delta is sealed into the view.
func TestConcurrentPlannedQueriesOverlayDelta(t *testing.T) {
	dataObjs, feats := clusteredCorpus(3000, 4)
	load := func() *Engine {
		e := NewEngine(Config{Nodes: 4, QueryCache: -1, CompactAfter: -1})
		t.Cleanup(func() { e.Close() })
		var sealed, appended []DataObject
		for i, o := range dataObjs {
			if i%4 == 0 {
				appended = append(appended, o)
			} else {
				sealed = append(sealed, o)
			}
		}
		if err := e.AddData(sealed...); err != nil {
			t.Fatal(err)
		}
		if err := e.AddFeature(feats...); err != nil {
			t.Fatal(err)
		}
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := e.AddData(appended...); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e, compacted := load(), load()
	if err := compacted.Compact(); err != nil {
		t.Fatal(err)
	}
	type run struct {
		q    Query
		alg  Algorithm
		want []Result
	}
	var runs []run
	for _, alg := range Algorithms() {
		for _, mode := range []ScoringMode{ScoreRange, ScoreInfluence, ScoreNearest} {
			if !alg.SupportsMode(mode) {
				continue
			}
			q := Query{K: 8, Radius: 0.03, Keywords: []string{"common1", "c0-kw3", "c2-kw9"}, Mode: mode}
			want, err := compacted.Query(q, WithAlgorithm(alg), WithAutoPlan(), WithGrid(10))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%v %v: no results; the corpus is off", alg, mode)
			}
			runs = append(runs, run{q, alg, want})
		}
	}
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := e.QueryReport(r.q, WithAlgorithm(r.alg), WithAutoPlan(), WithGrid(10))
				if err != nil {
					t.Error(err)
					return
				}
				if rep.Counters[CounterDeltaRecordsSelected] == 0 || rep.Counters[CounterViewHit]+rep.Counters[CounterViewMiss] != 1 {
					t.Errorf("%v %v: the delta did not overlay the view: counters %v", r.alg, r.q.Mode, rep.Counters)
				}
				if d := diffResults(rep.Results, r.want); d != "" {
					t.Errorf("%v %v over the view with a delta: %s", r.alg, r.q.Mode, d)
				}
			}()
		}
	}
	wg.Wait()
}

func TestChooseReducers(t *testing.T) {
	if got := chooseReducers(4, 8); got != 16 {
		t.Errorf("small grid: reducers = %d, want 16 (one per cell)", got)
	}
	if got := chooseReducers(50, 8); got != 32 {
		t.Errorf("large grid: reducers = %d, want 32 (4x slots)", got)
	}
	if got := chooseReducers(50, 0); got != 2500 {
		t.Errorf("no slot info: reducers = %d, want 2500", got)
	}
}
