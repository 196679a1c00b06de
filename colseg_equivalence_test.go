package spq

import (
	"testing"
)

// TestColumnarMatchesRecordStorageProperty is the storage-format
// correctness property: the same corpus sealed as SPQ3 compressed columnar
// segments, as text record files and as the in-memory layout returns
// byte-identical results for every algorithm, planned and unplanned. The
// format changes how bytes reach the map phase — compressed column blocks
// fetched by zone-map offset versus records parsed line by line or read
// from memory — and nothing else. For SPQ3 this also covers the block-
// at-a-time map: a feature's two counts come from the block dictionary and
// the posting lists of the query's keywords instead of from a per-record
// keyword set, and the results must not move.
func TestColumnarMatchesRecordStorageProperty(t *testing.T) {
	build := func(st Storage, format string) *Engine {
		e := NewEngine(Config{Storage: st, Nodes: 4, BlockSize: 4 << 10, Seed: 9})
		loadClusteredCorpus(t, e, 4000, 8)
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
		if f := e.Manifest().Format; f != format {
			t.Fatalf("storage %d sealed as %q, want %q", st, f, format)
		}
		return e
	}
	spq3 := build(StorageDFSBinary, "spq3")
	text := build(StorageDFS, "text")
	mem := build(StorageMemory, "mem")

	queries := []Query{
		{K: 5, Radius: 0.03, Keywords: []string{"c2-kw9", "common3"}},
		{K: 10, Radius: 0.1, Keywords: []string{"common1"}},
		{K: 3, Radius: 0.01, Keywords: []string{"c5-kw1"}},
		{K: 7, Radius: 0, Keywords: []string{"common7", "c0-kw3"}},
		{K: 2, Radius: 0.05, Keywords: []string{"zzz-out-of-vocabulary"}},
	}
	for qi, q := range queries {
		for _, alg := range Algorithms() {
			for _, planned := range []bool{false, true} {
				opts := []QueryOption{WithAlgorithm(alg), WithGrid(9), WithCache(false)}
				if planned {
					opts = append(opts, WithAutoPlan())
				}
				want, err := text.Query(q, opts...)
				if err != nil {
					t.Fatalf("q%d %v planned=%v text: %v", qi, alg, planned, err)
				}
				for name, e := range map[string]*Engine{"spq3": spq3, "memory": mem} {
					got, err := e.Query(q, opts...)
					if err != nil {
						t.Fatalf("q%d %v planned=%v %s: %v", qi, alg, planned, name, err)
					}
					if !resultsEqual(want, got) {
						t.Errorf("q%d %v planned=%v: %s differs\ntext: %+v\n%s: %+v",
							qi, alg, planned, name, want, name, got)
					}
				}
			}
		}
	}
}

// TestColumnarBlockPruningAndCache checks the two things only columnar
// storage can do: prune inside cells (spq.plan.blocks.pruned > 0 on a
// selective query) and serve repeats from the decoded-segment cache.
func TestColumnarBlockPruningAndCache(t *testing.T) {
	e := NewEngine(Config{Storage: StorageDFSBinary, Nodes: 4, Seed: 7})
	loadClusteredCorpus(t, e, 30000, 8)
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}

	q := Query{K: 5, Radius: 0.02, Keywords: []string{"c1-kw5"}}
	rep, err := e.QueryReport(q, WithAutoPlan(), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Plan == nil || rep.Plan.Blocks == 0 {
		t.Fatalf("no block zone maps considered: %+v", rep.Plan)
	}
	if rep.Plan.BlocksPruned == 0 {
		t.Fatalf("selective query pruned no blocks: %+v", rep.Plan)
	}
	if got := rep.Counters["spq.plan.blocks.pruned"]; got != int64(rep.Plan.BlocksPruned) {
		t.Errorf("blocks.pruned counter = %d, Plan says %d", got, rep.Plan.BlocksPruned)
	}
	if got := rep.Counters["spq.plan.blocks.scanned"]; got != int64(rep.Plan.Blocks-rep.Plan.BlocksPruned) {
		t.Errorf("blocks.scanned counter = %d, Plan says %d", got, rep.Plan.Blocks-rep.Plan.BlocksPruned)
	}
	// Block pruning is sharper than cell pruning, and the job itself reads
	// only the selected FEATURE records: the selected data blocks feed the
	// per-grid data view instead of the shuffle, so the map input is a
	// strict subset of the plan's selection.
	read := rep.Counters["map.records.in"]
	if read == 0 || read >= rep.Plan.RecordsSelected {
		t.Errorf("job read %d records, want a non-empty strict subset of the %d selected (features only)",
			read, rep.Plan.RecordsSelected)
	}

	// Repeat: every block the repeat touches — surviving feature blocks
	// through the job, data blocks only if the view were rebuilt — is a
	// segment-cache hit, and nothing is ever decoded twice.
	before := e.SegmentCacheStats()
	if before.Misses == 0 || before.Hits != 0 {
		t.Fatalf("cold segment cache stats: %+v", before)
	}
	rep2, err := e.QueryReport(q, WithAutoPlan(), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(rep.Results, rep2.Results) {
		t.Fatal("cached-block repeat changed results")
	}
	after := e.SegmentCacheStats()
	if after.Hits == 0 {
		t.Error("repeat decoded every block again: no segment-cache hits")
	}
	if after.Misses != before.Misses {
		t.Errorf("repeat re-decoded blocks: misses %d -> %d", before.Misses, after.Misses)
	}

	// A compaction bumps the generation: old entries become unreachable.
	if err := e.AddData(DataObject{ID: 1 << 40, X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryReport(q, WithAutoPlan(), WithCache(false)); err != nil {
		t.Fatal(err)
	}
	final := e.SegmentCacheStats()
	if final.Misses == after.Misses {
		t.Error("post-compaction query served stale-generation blocks")
	}
}

// TestSegmentCacheDisabled: a negative Config.SegmentCache turns the
// decoded-segment cache off without affecting results.
func TestSegmentCacheDisabled(t *testing.T) {
	e := NewEngine(Config{Storage: StorageDFSBinary, SegmentCache: -1})
	loadClusteredCorpus(t, e, 500, 4)
	q := Query{K: 3, Radius: 0.05, Keywords: []string{"common2"}}
	res, err := e.Query(q, WithAutoPlan())
	if err != nil {
		t.Fatal(err)
	}
	if st := e.SegmentCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache has stats %+v", st)
	}
	ref := NewEngine(Config{Storage: StorageDFSBinary})
	loadClusteredCorpus(t, ref, 500, 4)
	want, err := ref.Query(q, WithAutoPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, want) {
		t.Fatal("cache-disabled engine returned different results")
	}
}
