package spq

import (
	"bytes"
	"fmt"
	"math/rand"
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

// oracleStorages are the storage modes the oracle properties cover.
var oracleStorages = []struct {
	name    string
	storage Storage
	format  string
}{{"spq3", StorageDFSBinary, "spq3"}, {"memory", StorageMemory, "mem"}}

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

// checkOracle runs every query through every algorithm, unplanned and
// planned, on every storage mode, sealed and with an uncompacted delta,
// and requires results identical to the oracle's — ids, coordinates and
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
			if f := e.Manifest().Format; f != st.format {
				t.Fatalf("%s sealed as %q, want %q", st.name, f, st.format)
			}
			for qi, q := range queries {
				for _, alg := range Algorithms() {
					for _, planned := range []bool{false, true} {
						o := append([]QueryOption{WithAlgorithm(alg), WithCache(false)}, opts...)
						if planned {
							o = append(o, WithAutoPlan())
						}
						got, err := e.Query(q, o...)
						if err != nil {
							t.Fatalf("q%d %v %s delta=%v planned=%v: %v", qi, alg, st.name, delta, planned, err)
						}
						if !resultsEqual(want[qi], got) {
							t.Errorf("q%d %+v %v %s delta=%v planned=%v differs from the oracle\noracle: %+v\nengine: %+v",
								qi, q, alg, st.name, delta, planned, want[qi], got)
						}
					}
				}
			}
		}
	}
}

// TestColumnarMatchesRecordStorageProperty is the storage-format
// correctness property on a clustered corpus and five hand-picked queries,
// among them an out-of-vocabulary keyword and a zero radius: SPQ3
// compressed columnar segments and resident memory blocks both
// return exactly the centralized R-tree oracle's results, for every
// algorithm, planned and unplanned, sealed and with a delta. For SPQ3 this
// also covers the block-at-a-time map: a feature's two counts come from
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

// TestStoragesBuildSameBlocks: memory storage is SPQ3 minus the encoding.
// Two engines loaded identically seal the same cells into the same blocks
// with equal zone maps — records, bounds, blooms — and the memory engine
// holds its base once, as those blocks: no object copy survives the seal,
// nor a compaction, which reads the base back from the blocks.
func TestStoragesBuildSameBlocks(t *testing.T) {
	engines := make([]*Engine, 2)
	for i, st := range []Storage{StorageDFSBinary, StorageMemory} {
		engines[i] = NewEngine(Config{Storage: st, Nodes: 4, SealGridN: 4, CompactAfter: -1})
		loadClusteredCorpus(t, engines[i], 20000, 8)
		if err := engines[i].Seal(); err != nil {
			t.Fatal(err)
		}
	}
	stored, mem := engines[0].Manifest(), engines[1].Manifest()
	multiBlock := false
	for _, pair := range [][2][]data.CellStats{{stored.Data, mem.Data}, {stored.Features, mem.Features}} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%d SPQ3 cells, %d memory cells", len(pair[0]), len(pair[1]))
		}
		for i, s := range pair[0] {
			m := pair[1][i]
			if s.Cell != m.Cell || s.Records != m.Records || s.Bounds != m.Bounds ||
				!bytes.Equal(s.Keywords, m.Keywords) || len(s.Blocks) != len(m.Blocks) {
				t.Fatalf("cell %d: SPQ3 %+v, memory %+v", s.Cell, s, m)
			}
			multiBlock = multiBlock || len(s.Blocks) > 1
			for bi, sb := range s.Blocks {
				mb := m.Blocks[bi]
				if sb.Records != mb.Records || sb.Bounds != mb.Bounds || !bytes.Equal(sb.Keywords, mb.Keywords) {
					t.Fatalf("cell %d block %d: SPQ3 zone map %+v, memory %+v", s.Cell, bi, sb, mb)
				}
			}
		}
	}
	if !multiBlock {
		t.Fatal("no cell spans several blocks: the block cut is untested")
	}

	e := engines[1]
	heldOnce := func(when string) {
		t.Helper()
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.objects != nil || e.resident == nil || e.snap.Load().resident == nil {
			t.Errorf("%s: %d objects held beside the blocks (resident blocks: %v)", when, len(e.objects), e.resident != nil)
		}
	}
	heldOnce("after Seal")
	if err := e.AddData(DataObject{ID: 1 << 40, X: 0.5, Y: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	heldOnce("after Compact")
	if nd, nf := e.Len(); int64(nd+nf) != e.Manifest().TotalRecords() {
		t.Errorf("compacted manifest holds %d records, engine %d", e.Manifest().TotalRecords(), nd+nf)
	}
}
