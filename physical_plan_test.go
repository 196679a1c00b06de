package spq

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/mapreduce"
	"spq/internal/plan"
)

// TestPlanQuery pins the planning step, with and without a visible delta,
// in-process and distributed:
//
//   - every query is planned: its selection is the planner's, cell for
//     cell and block for block, each cell the manifest's or the delta's
//     own entry, and it carries the planner's statistics;
//   - no sealed data block is in the source: the engine's data view serves
//     them to every job that runs in-process, delta or not, and only the
//     delta's blocks travel resident with the selection;
//   - a distributed engine ships a job whose every selected block is
//     stored (no delta block) with the generation's block list, so its
//     workers serve the sealed data from their own views; any other job
//     runs in-process, metered as spq.exec.fallback.local;
//   - a Config.Storage other than StorageDFSBinary is a configuration
//     error every query reports, and the engine attaches no worker;
//   - two queries with disjoint keywords at one grid share one view;
//   - the delta is cut into blocks at most once per snapshot, by the first
//     query that reads it;
//   - every query runs on the default grid unless WithGrid sets it: the
//     planner prunes but never sizes the job;
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
					// On a data object, so the planner keeps its block.
					at, _ := clusteredCorpus(600, 4)
					if err := e.AddFeature(Feature{ID: 1 << 40, X: at[0].X, Y: at[0].Y, Keywords: q.Keywords}); err != nil {
						t.Fatal(err)
					}
				}
				snap := e.snap.Load()
				if withDelta && (snap.delta.data != nil || snap.delta.features != nil) {
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
				// A shipped job runs one map task per worker lane: here one
				// worker of one slot. An in-process job gets a few map tasks
				// per map slot.
				wantMaps := 4 * e.cfg.MapSlots
				if p.wire != nil {
					wantMaps = 1
				}
				if p.src == nil {
					t.Fatal("plan without a source")
				} else if splits, err := p.src.Splits(); err != nil {
					t.Fatal(err)
				} else {
					if len(splits) > wantMaps || len(splits) == 0 {
						t.Errorf("%d map splits, want 1 to %d", len(splits), wantMaps)
					}
					var in int64
					for _, sp := range splits {
						in += int64(sp.(mapreduce.CountedSplit).Records())
					}
					if feats := selRecords(p.colsFeat); in != feats {
						t.Errorf("the source yields %d records, want the %d selected feature records", in, feats)
					}
				}
				if p.empty || p.planStats == nil || p.counters[plan.CounterBlocksScanned] == 0 {
					t.Errorf("query not planned: empty=%v stats=%+v counters=%v", p.empty, p.planStats, p.counters)
				}
				if pr := planQ(WithReducers(3)); pr.reducers != 3 || pr.planStats.NumReducers != 3 {
					t.Errorf("WithReducers(3): %d reducers, reported %d", pr.reducers, pr.planStats.NumReducers)
				}
				// A query runs on the default grid or on WithGrid's, and the
				// planner's report names the grid and the reducer count that
				// run: the slot-derived count, fewer than the grid's cells.
				for _, gridN := range []int{0, 7} {
					var opts []QueryOption
					wantGrid := defaultGridN
					if gridN > 0 {
						opts, wantGrid = append(opts, WithGrid(gridN)), gridN
					}
					pp := planQ(opts...)
					wantPlanned := chooseReducers(wantGrid, e.cfg.ReduceSlots)
					if pp.wire != nil {
						wantPlanned = 1
					}
					if pp.gridN != wantGrid || pp.reducers != wantPlanned || wantPlanned >= wantGrid*wantGrid ||
						pp.planStats.GridN != pp.gridN || pp.planStats.NumReducers != pp.reducers {
						t.Errorf("WithGrid(%d): grid %d with %d reducers, reported %+v, want grid %d with %d (fewer than its cells)",
							gridN, pp.gridN, pp.reducers, pp.planStats, wantGrid, wantPlanned)
					}
				}

				// The selection is the planner's, and every cell is the
				// manifest's or the delta's own entry: resident blocks ride
				// with a delta cell only.
				var dd, df []data.ColSel
				if withDelta {
					dd, df = snap.delta.data, snap.delta.features
				}
				dec := plan.PlanGenerations(snap.manifest, dd, df, plan.Input{Radius: q.Radius, Keywords: q.Keywords})
				if !reflect.DeepEqual(p.colsData, dec.Data()) || !reflect.DeepEqual(p.colsFeat, dec.Features()) {
					t.Errorf("selection %v / %v, want the planner's %v / %v", p.colsData, p.colsFeat, dec.Data(), dec.Features())
				}
				if dec.Stats.BlocksPruned == 0 || dec.Stats.BlocksPruned == dec.Stats.Blocks {
					t.Errorf("the planner pruned %d of %d blocks; the query does not exercise pruning", dec.Stats.BlocksPruned, dec.Stats.Blocks)
				}
				for _, sel := range append(append([]data.ColSel(nil), p.colsData...), p.colsFeat...) {
					origin := selOrigin(snap, sel)
					if origin == "" || (sel.Resident != nil) != (origin == "delta") || len(sel.Blocks) == 0 {
						t.Errorf("cell %s: origin %q, resident blocks %v, blocks %v", sel.Cell.File, origin, sel.Resident != nil, sel.Blocks)
					}
				}

				if withDelta {
					cut := snap.delta.features
					if p.deltaStats.Records != 1 || p.deltaStats.RecordsSelected != 1 || p.deltaStats.Cells != 1 || len(cut) != 1 {
						t.Errorf("delta stats = %+v, want the whole 1-record delta in its one cell", p.deltaStats)
					}
					// Opting out of the delta drops only the delta.
					if pd := planQ(WithDelta(false)); (pd.wire != nil) != ships(false) || pd.deltaStats.Records != 0 {
						t.Errorf("WithDelta(false): wire=%+v delta=%+v", pd.wire, pd.deltaStats)
					}
					// Another query reads the same blocks: they are not cut
					// again.
					if pp := planQ(WithGrid(7)); pp.deltaStats.Cells != 1 || &snap.delta.features[0] != &cut[0] {
						t.Errorf("second query: delta=%+v, blocks rebuilt: %v", pp.deltaStats, &snap.delta.features[0] != &cut[0])
					}
				} else if _, ok := p.counters[CounterDeltaRecords]; ok || p.deltaStats.Records != 0 {
					t.Errorf("delta-free plan: delta=%+v counters=%v", p.deltaStats, p.counters)
				}

				if !distributed {
					var views []int64
					for _, kw := range []string{"common1", "c0-kw7"} {
						rep, err := e.QueryReport(Query{K: 3, Radius: 0.05, Keywords: []string{kw}}, WithGrid(8), WithCache(false))
						if err != nil {
							t.Fatal(err)
						}
						views = append(views, rep.Counters[CounterViewMiss], rep.Counters[CounterViewHit])
					}
					if want := []int64{1, 0, 0, 1}; !reflect.DeepEqual(views, want) {
						t.Errorf("view miss/hit of two queries at one grid = %v, want %v", views, want)
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

// TestEveryQueryIsPlanned: no option turns the planner on or off.
//
//   - A query without options carries the planner's report and its
//     spq.plan.* counters.
//   - WithAutoPlan and the wire's auto_plan are no-ops: with and without
//     them, the query is one cache entry, and every call after the first
//     is a hit with the first call's report.
//   - A keyword no feature carries proves the query empty: no job runs.
//   - The plan's selections point at the manifest's own cells and the
//     delta's, never at copies.
func TestEveryQueryIsPlanned(t *testing.T) {
	e := NewEngine(Config{Nodes: 4, CompactAfter: -1})
	t.Cleanup(func() { e.Close() })
	loadClusteredCorpus(t, e, 2000, 4)
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	q := Query{K: 3, Radius: 0.05, Keywords: []string{"common1"}}
	at, _ := clusteredCorpus(2000, 4)
	if err := e.AddFeature(Feature{ID: 1 << 40, X: at[0].X, Y: at[0].Y, Keywords: q.Keywords}); err != nil {
		t.Fatal(err)
	}

	first, err := e.QueryReport(q)
	if err != nil {
		t.Fatal(err)
	}
	if p := first.Plan; p == nil || p.BlocksPruned == 0 || first.Counters[plan.CounterBlocksScanned] != int64(p.Blocks-p.BlocksPruned) {
		t.Fatalf("a query without options reports plan %+v, counters %v, want the planner's pruning", p, first.Counters)
	}

	calls := [][]QueryOption{{WithAutoPlan()}, nil}
	for _, auto := range []bool{true, false} {
		opts, err := (&QueryRequest{Query: q, AutoPlan: auto}).Options()
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, opts)
	}
	for i, opts := range calls {
		rep, err := e.QueryReport(q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Counters[CounterCacheHit] != 1 {
			t.Errorf("call %d missed the cache entry of the first query: %v", i, rep.Counters)
		}
		if !reflect.DeepEqual(rep.Results, first.Results) || !reflect.DeepEqual(rep.Plan, first.Plan) ||
			!reflect.DeepEqual(rep.Delta, first.Delta) || rep.Options() != first.Options() {
			t.Errorf("call %d: report %+v, want the first query's %+v", i, rep, first)
		}
	}
	if st := e.CacheStats(); st.Entries != 1 || st.Misses != 1 || st.Hits != int64(len(calls)) {
		t.Errorf("cache stats %+v, want one entry, one miss and %d hits", st, len(calls))
	}

	empty, err := e.QueryReport(Query{K: 3, Radius: 0.05, Keywords: []string{"zzz-no-such-word"}}, WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Results) != 0 || empty.Counters[mapreduce.CounterMapRecordsIn] != 0 || empty.TotalMillis != 0 ||
		empty.Plan.RecordsSelected != 0 {
		t.Errorf("out-of-vocabulary query ran a job: results %v, counters %v, plan %+v", empty.Results, empty.Counters, empty.Plan)
	}

	snap := e.snap.Load()
	p := e.planQuery(snap, q, &queryConfig{alg: core.ESPQSco})
	origins := map[string]int{}
	for _, sel := range append(append([]data.ColSel(nil), p.colsData...), p.colsFeat...) {
		origins[selOrigin(snap, sel)]++
	}
	if origins[""] != 0 || origins["sealed"] == 0 || origins["delta"] != 1 {
		t.Errorf("selections by origin %v, want sealed cells and the one delta cell, no copy", origins)
	}
}

// selOrigin names where a selection's cell lives: "sealed" for an entry of
// the snapshot's manifest, "delta" for one of its delta's cut, and "" for
// anything else, such as a copy.
func selOrigin(s *snapshot, sel data.ColSel) string {
	for _, cells := range [][]data.CellStats{s.manifest.Data, s.manifest.Features} {
		for i := range cells {
			if sel.Cell == &cells[i] {
				return "sealed"
			}
		}
	}
	if s.delta != nil && slices.ContainsFunc(slices.Concat(s.delta.data, s.delta.features),
		func(d data.ColSel) bool { return d.Cell == sel.Cell }) {
		return "delta"
	}
	return ""
}

// selRecords sums the records of the selected blocks.
func selRecords(sels []data.ColSel) int64 {
	var n int64
	for _, sel := range sels {
		for _, i := range sel.Blocks {
			n += int64(sel.Cell.Blocks[i].Records)
		}
	}
	return n
}

// TestDataViewSharedAcrossQueries pins the view cache key and its
// counters: 60 queries with pairwise disjoint keywords and different
// radii, on one base generation at one grid, build its data view once — exactly one spq.view.miss, 59 spq.view.hit — while another
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
		rep, err := e.QueryReport(Query{K: 3, Radius: r, Keywords: []string{kw}}, WithGrid(gridN))
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
		t.Errorf("60 queries at one grid: %d view misses and %d hits, want 1 and 59", misses, hits)
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

// TestConcurrentPlannedQueriesOverlayDelta runs queries concurrently
// over one shared data view while a delta is visible whose
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
			want, err := compacted.Query(q, WithAlgorithm(alg), WithGrid(10))
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
				rep, err := e.QueryReport(r.q, WithAlgorithm(r.alg), WithGrid(10))
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
}
