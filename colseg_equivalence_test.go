package spq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/text"
)

// oracleResults answers q with the centralized R-tree evaluator over the
// given objects: an independent reference that shares neither storage,
// planner nor MapReduce code with the engine.
func oracleResults(dataObjs []DataObject, feats []Feature, q Query) []Result {
	dict := text.NewDict()
	objs := make([]data.Object, 0, len(dataObjs)+len(feats))
	for _, o := range dataObjs {
		objs = append(objs, data.Object{Kind: data.DataObject, ID: o.ID, Loc: geo.Point{X: o.X, Y: o.Y}})
	}
	for _, f := range feats {
		objs = append(objs, data.Object{Kind: data.FeatureObject, ID: f.ID, Loc: geo.Point{X: f.X, Y: f.Y}, Keywords: dict.InternAll(f.Keywords)})
	}
	cq := core.Query{K: q.K, Radius: q.Radius, Keywords: dict.InternAll(q.Keywords), Mode: q.Mode}
	return toResults(core.RTreeCentralized(objs, cq))
}

// oracleStorages are the storages the oracle properties cover: the one
// sealed storage, SPQ3 segments in the DFS.
var oracleStorages = []struct {
	name    string
	storage Storage
}{{"spq3", StorageDFSBinary}}

// oracleEngine loads the objects into an engine over storage st and seals
// it. With delta set, the last third of each dataset is appended after the
// seal and left uncompacted, so queries read sealed storage and the delta
// together.
func oracleEngine(t *testing.T, st Storage, delta bool, dataObjs []DataObject, feats []Feature) *Engine {
	t.Helper()
	e := NewEngine(Config{Storage: st, Nodes: 4, BlockSize: 4 << 10, Seed: 9, CompactAfter: -1})
	nd, nf := len(dataObjs), len(feats)
	if delta {
		nd, nf = nd*2/3, nf*2/3
	}
	load := func(d []DataObject, f []Feature) {
		if err := e.AddData(d...); err != nil {
			t.Fatal(err)
		}
		if err := e.AddFeature(f...); err != nil {
			t.Fatal(err)
		}
	}
	load(dataObjs[:nd], feats[:nf])
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	load(dataObjs[nd:], feats[nf:])
	if delta && e.DeltaLen() == 0 {
		t.Fatal("delta engine has an empty delta")
	}
	return e
}

// checkOracle runs every query through every algorithm, sealed and with
// an uncompacted delta, and requires results identical to the oracle's — ids, coordinates and
// bitwise scores, ties broken canonically.
func checkOracle(t *testing.T, dataObjs []DataObject, feats []Feature, queries []Query, opts ...QueryOption) {
	t.Helper()
	want := make([][]Result, len(queries))
	for qi, q := range queries {
		want[qi] = oracleResults(dataObjs, feats, q)
	}
	for _, st := range oracleStorages {
		for _, delta := range []bool{false, true} {
			e := oracleEngine(t, st.storage, delta, dataObjs, feats)
			for qi, q := range queries {
				for _, alg := range Algorithms() {
					o := append([]QueryOption{WithAlgorithm(alg), WithCache(false)}, opts...)
					got, err := e.Query(q, o...)
					if err != nil {
						t.Fatalf("q%d %v %s delta=%v: %v", qi, alg, st.name, delta, err)
					}
					if !resultsEqual(want[qi], got) {
						t.Errorf("q%d %+v %v %s delta=%v differs from the oracle\noracle: %+v\nengine: %+v",
							qi, q, alg, st.name, delta, want[qi], got)
					}
				}
			}
		}
	}
}

// TestColumnarMatchesRecordStorageProperty is the storage-format
// correctness property on a clustered corpus and five hand-picked queries,
// among them an out-of-vocabulary keyword and a zero radius: SPQ3
// compressed columnar segments, and the delta's resident blocks beside
// them, return exactly the centralized R-tree oracle's results, for every
// algorithm, sealed and with a delta. This also
// covers the block-at-a-time map: a feature's two counts come from
// the block dictionary and the posting lists of the query's keywords
// instead of from a per-record keyword set, and the results must not move.
func TestColumnarMatchesRecordStorageProperty(t *testing.T) {
	dataObjs, feats := clusteredCorpus(4000, 8)
	checkOracle(t, dataObjs, feats, []Query{
		{K: 5, Radius: 0.03, Keywords: []string{"c2-kw9", "common3"}},
		{K: 10, Radius: 0.1, Keywords: []string{"common1"}},
		{K: 3, Radius: 0.01, Keywords: []string{"c5-kw1"}},
		{K: 7, Radius: 0, Keywords: []string{"common7", "c0-kw3"}},
		{K: 2, Radius: 0.05, Keywords: []string{"zzz-out-of-vocabulary"}},
	}, WithGrid(9))
}

// TestStorageMatchesOracleRandomized is the same property over seeded
// random small instances: random sizes, vocabularies, k, radii and
// keywords (sometimes out of vocabulary), with every fifth object placed on
// an earlier object's coordinates so that scores tie and the canonical
// tie-break decides the top-k.
func TestStorageMatchesOracleRandomized(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vocab := 4 + rng.Intn(30)
		word := func() string { return fmt.Sprintf("w%d", rng.Intn(vocab)) }
		var pts [][2]float64
		var dataObjs []DataObject
		var feats []Feature
		for i, n := 0, 40+rng.Intn(760); i < n; i++ {
			p := [2]float64{rng.Float64(), rng.Float64()}
			if len(pts) > 0 && rng.Intn(5) == 0 {
				p = pts[rng.Intn(len(pts))]
			}
			pts = append(pts, p)
			if i%2 == 0 {
				dataObjs = append(dataObjs, DataObject{ID: uint64(i + 1), X: p[0], Y: p[1]})
				continue
			}
			kws := make([]string, 1+rng.Intn(6))
			for j := range kws {
				kws[j] = word()
			}
			feats = append(feats, Feature{ID: uint64(i + 1), X: p[0], Y: p[1], Keywords: kws})
		}
		queries := make([]Query, 2)
		for i := range queries {
			q := Query{K: 1 + rng.Intn(20), Radius: 0.2 * rng.Float64(), Keywords: []string{word()}}
			if rng.Intn(4) == 0 {
				q.Radius = 0
			}
			for range rng.Intn(3) {
				q.Keywords = append(q.Keywords, word())
			}
			if rng.Intn(4) == 0 {
				q.Keywords = append(q.Keywords, "zzz-out-of-vocabulary")
			}
			queries[i] = q
		}
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			checkOracle(t, dataObjs, feats, queries)
		})
	}
}

// TestColumnarBlockPruningAndCache checks block pruning inside cells
// (spq.plan.blocks.pruned > 0 on a selective query) and the one thing only
// SPQ3 storage does: serve repeats from the decoded-segment cache.
func TestColumnarBlockPruningAndCache(t *testing.T) {
	e := NewEngine(Config{Storage: StorageDFSBinary, Nodes: 4, Seed: 7})
	loadClusteredCorpus(t, e, 30000, 8)
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}

	q := Query{K: 5, Radius: 0.02, Keywords: []string{"c1-kw5"}}
	rep, err := e.QueryReport(q, WithCache(false))
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
	rep2, err := e.QueryReport(q, WithCache(false))
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
	if _, err := e.QueryReport(q, WithCache(false)); err != nil {
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
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.SegmentCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache has stats %+v", st)
	}
	ref := NewEngine(Config{Storage: StorageDFSBinary})
	loadClusteredCorpus(t, ref, 500, 4)
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, want) {
		t.Fatal("cache-disabled engine returned different results")
	}
}

// TestSealWritesOnlyCellSegments: a seal and a compaction write the cell
// segments their manifest names, plus the data block list on a
// distributed engine, and nothing else — no manifest file. A compaction
// leaves the previous generation's files in place for queries still
// reading it.
func TestSealWritesOnlyCellSegments(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		t.Run(fmt.Sprintf("distributed=%v", distributed), func(t *testing.T) {
			cfg := Config{Nodes: 4, SealGridN: 4, CompactAfter: -1}
			if distributed {
				cfg.Workers = distWorkers(t, 1, 1)
			}
			e := NewEngine(cfg)
			t.Cleanup(func() { e.Close() })
			loadClusteredCorpus(t, e, 2000, 4)
			var want []string
			sealed := func(when string) {
				t.Helper()
				m := e.Manifest()
				for _, cs := range append(append([]data.CellStats(nil), m.Data...), m.Features...) {
					want = append(want, cs.File)
				}
				if distributed {
					want = append(want, e.snap.Load().dataBlocks)
				}
				slices.Sort(want)
				if got := e.fs.List(); !slices.Equal(got, want) {
					t.Errorf("after %s the DFS holds %v, want the cell segments and block lists %v", when, got, want)
				}
			}
			if err := e.Seal(); err != nil {
				t.Fatal(err)
			}
			sealed("Seal")
			if err := e.AddData(DataObject{ID: 1 << 40, X: 0.5, Y: 0.5}); err != nil {
				t.Fatal(err)
			}
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			sealed("Compact")
		})
	}
}
