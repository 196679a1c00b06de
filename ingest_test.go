package spq

// Tests for generational ingestion: append-after-seal into the in-memory
// delta, compaction into fresh storage generations, and the interaction
// with the query cache and the planner.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// ingestWorkload deterministically generates n data objects and n features
// over the unit square with keywords from a small vocabulary, so queries
// built from the vocabulary are guaranteed to match.
func ingestWorkload(n int, seed int64) ([]DataObject, []Feature) {
	vocab := []string{
		"espresso", "bakery", "ramen", "tapas", "vegan", "sushi",
		"rooftop", "brunch", "wine", "late", "cheap", "gourmet",
	}
	r := rand.New(rand.NewSource(seed))
	dataObjs := make([]DataObject, n)
	feats := make([]Feature, n)
	for i := 0; i < n; i++ {
		dataObjs[i] = DataObject{ID: uint64(i + 1), X: r.Float64(), Y: r.Float64()}
		kws := make([]string, 1+r.Intn(3))
		for j := range kws {
			kws[j] = vocab[r.Intn(len(vocab))]
		}
		feats[i] = Feature{ID: uint64(i + 1), X: r.Float64(), Y: r.Float64(), Keywords: kws}
	}
	return dataObjs, feats
}

// featureLines renders features in the LoadLines text format.
func featureLines(feats []Feature) string {
	var b strings.Builder
	for _, f := range feats {
		fmt.Fprintf(&b, "F\t%d\t%g\t%g\t%s\n", f.ID, f.X, f.Y, strings.Join(f.Keywords, ","))
	}
	return b.String()
}

// TestIngestEquivalenceProperty is the lifecycle property of the PR:
// results are identical whether records are loaded pre-seal in one batch
// or appended across N generations with compactions interleaved, for every
// algorithm, with and without the planner.
func TestIngestEquivalenceProperty(t *testing.T) {
	const n = 400
	dataObjs, feats := ingestWorkload(n, 42)
	queries := []Query{
		{K: 10, Radius: 0.08, Keywords: []string{"espresso", "brunch"}},
		{K: 25, Radius: 0.15, Keywords: []string{"sushi"}},
		{K: 5, Radius: 0.03, Keywords: []string{"vegan", "wine", "cheap"}},
	}
	cfg := Config{Nodes: 4, BlockSize: 8 << 10, Seed: 3}

	// Engine A: everything loaded pre-seal, one batch, one generation.
	batch := NewEngine(cfg)
	if err := batch.AddData(dataObjs...); err != nil {
		t.Fatal(err)
	}
	if err := batch.AddFeature(feats...); err != nil {
		t.Fatal(err)
	}
	if err := batch.Seal(); err != nil {
		t.Fatal(err)
	}

	// Engine B: half the records sealed as the base, the rest appended
	// across several generations — via AddData, AddFeature and
	// LoadLines — with a compaction in the middle and a tail left
	// uncompacted in the delta.
	inc := NewEngine(cfg)
	half := n / 2
	if err := inc.AddData(dataObjs[:half]...); err != nil {
		t.Fatal(err)
	}
	if err := inc.AddFeature(feats[:half]...); err != nil {
		t.Fatal(err)
	}
	if err := inc.Seal(); err != nil {
		t.Fatal(err)
	}
	quarter := half + n/4
	if err := inc.AddData(dataObjs[half:quarter]...); err != nil {
		t.Fatal(err)
	}
	if err := inc.AddFeature(feats[half:quarter]...); err != nil {
		t.Fatal(err)
	}
	if err := inc.Compact(); err != nil {
		t.Fatal(err)
	}
	if d := inc.DeltaLen(); d != 0 {
		t.Fatalf("DeltaLen = %d after Compact, want 0", d)
	}
	if err := inc.AddData(dataObjs[quarter:]...); err != nil {
		t.Fatal(err)
	}
	if err := inc.LoadLines(strings.NewReader(featureLines(feats[quarter:]))); err != nil {
		t.Fatal(err)
	}
	if d := inc.DeltaLen(); d == 0 {
		t.Fatal("tail appends not in delta")
	}
	if nd, nf := inc.Len(); nd != n || nf != n {
		t.Fatalf("Len = %d, %d, want %d, %d", nd, nf, n, n)
	}

	for _, alg := range Algorithms() {
		for qi, q := range queries {
			opts := []QueryOption{WithAlgorithm(alg), WithCache(false)}
			want, err := batch.Query(q, opts...)
			if err != nil {
				t.Fatalf("%v q%d batch: %v", alg, qi, err)
			}
			got, err := inc.Query(q, opts...)
			if err != nil {
				t.Fatalf("%v q%d incremental: %v", alg, qi, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v q%d: incremental results differ\n got %v\nwant %v",
					alg, qi, got, want)
			}
		}
	}
}

// TestAppendWhileQueryRace hammers one sealed engine with concurrent
// appenders and queriers while automatic compactions swap generations
// under them (run under -race this proves the snapshot/delta publication
// race-clean). Every query must succeed against a consistent snapshot:
// errors and duplicate result ids are both failures. Once the stream is
// folded in, every query must answer exactly like an engine that loaded
// the same records pre-seal in one batch.
func TestAppendWhileQueryRace(t *testing.T) {
	const base, batches, perBatch, queriers, rounds = 800, 16, 20, 4, 8
	dataObjs, feats := ingestWorkload(base+batches*perBatch, 7)
	query := func(g int) Query {
		return Query{K: 20, Radius: 0.05 + float64(g)*0.01, Keywords: []string{"ramen", "tapas"}}
	}
	// Every fifth append call of perBatch records crosses the threshold:
	// six compactions during the stream, and a tail left in the delta.
	e := NewEngine(Config{CompactAfter: 5 * perBatch})
	if err := e.AddData(dataObjs[:base]...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats[:base]...); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, queriers+1)
	compactions := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Auto-compaction runs inside the append call that crosses the
		// threshold, so a new manifest after a call is one compaction;
		// queries in flight must finish on their old snapshot meanwhile.
		man := e.Manifest()
		for b := 0; b < batches; b++ {
			lo, hi := base+b*perBatch, base+(b+1)*perBatch
			if err := e.AddData(dataObjs[lo:hi]...); err != nil {
				errs[queriers] = err
				return
			}
			if err := e.AddFeature(feats[lo:hi]...); err != nil {
				errs[queriers] = err
				return
			}
			if m := e.Manifest(); m != man {
				compactions++
				man = m
			}
		}
	}()
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := e.Query(query(g))
				if err != nil {
					errs[g] = err
					return
				}
				seen := make(map[uint64]bool, len(res))
				for _, it := range res {
					if seen[it.ID] {
						errs[g] = fmt.Errorf("round %d: id %d twice in top-k", r, it.ID)
						return
					}
					seen[it.ID] = true
				}
			}
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
	if compactions < 3 {
		t.Errorf("%d automatic compactions during the stream, want several", compactions)
	}

	// After the writer finishes, a final compaction folds the tail in and
	// queries serve the complete dataset, exactly as a pre-seal batch load.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if d := e.DeltaLen(); d != 0 {
		t.Errorf("DeltaLen = %d after final Compact", d)
	}
	if nd, nf := e.Len(); nd != len(dataObjs) || nf != len(feats) {
		t.Errorf("Len = %d, %d, want %d, %d", nd, nf, len(dataObjs), len(feats))
	}
	if total := e.Manifest().TotalRecords(); total != int64(len(dataObjs)+len(feats)) {
		t.Errorf("manifest records = %d, want %d", total, len(dataObjs)+len(feats))
	}
	batch := NewEngine(Config{})
	if err := batch.AddData(dataObjs...); err != nil {
		t.Fatal(err)
	}
	if err := batch.AddFeature(feats...); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < queriers; g++ {
		want, err := batch.Query(query(g))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(query(g), WithCache(false))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: appended+compacted results differ from the batch load\n got %v\nwant %v", g, got, want)
		}
	}
}

// TestCacheNeverServesStaleGeneration: a cached report from before an
// append must not satisfy the same query afterwards — the appended record
// has to show up.
func TestCacheNeverServesStaleGeneration(t *testing.T) {
	e := loadPaperExample(t, Config{})
	q := Query{K: 3, Radius: 1.5, Keywords: []string{"italian"}}
	first, err := e.QueryReport(q)
	if err != nil {
		t.Fatal(err)
	}
	repeat, err := e.QueryReport(q)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Counters[CounterCacheHit] != 1 {
		t.Fatalf("repeat before append not cached: %v", repeat.Counters)
	}

	// A new hotel right next to the italian restaurant f4 must land in the
	// top-k of the repeated query.
	if err := e.AddData(DataObject{ID: 50, X: 3.8, Y: 5.4}); err != nil {
		t.Fatal(err)
	}
	after, err := e.QueryReport(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Counters[CounterCacheHit] == 1 {
		t.Error("query after append served from the stale cache entry")
	}
	found := false
	for _, r := range after.Results {
		if r.ID == 50 {
			found = true
		}
	}
	if !found {
		t.Errorf("appended object missing from results: %v (before: %v)", after.Results, first.Results)
	}
	if after.Delta == nil || after.Delta.Records != 1 {
		t.Errorf("Report.Delta = %+v, want 1 visible delta record", after.Delta)
	}
	if after.Delta.Generation <= first.Delta.Generation {
		t.Errorf("generation did not advance: %d -> %d", first.Delta.Generation, after.Delta.Generation)
	}

	// The new entry is cached under the new generation.
	hot, err := e.QueryReport(q)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Counters[CounterCacheHit] != 1 {
		t.Errorf("repeat after append not cached under new generation: %v", hot.Counters)
	}
	if !reflect.DeepEqual(hot.Results, after.Results) {
		t.Errorf("cached post-append results differ: %v vs %v", hot.Results, after.Results)
	}
}

// TestAutoCompaction: Config.CompactAfter folds the delta into a new
// sealed generation automatically; a negative threshold disables it.
func TestAutoCompaction(t *testing.T) {
	dataObjs, feats := ingestWorkload(40, 11)
	e := NewEngine(Config{CompactAfter: 10})
	if err := e.AddData(dataObjs[:20]...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats[:20]...); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	// 12 appended records cross the threshold of 10: the batch commits and
	// immediately compacts.
	if err := e.AddData(dataObjs[20:32]...); err != nil {
		t.Fatal(err)
	}
	if d := e.DeltaLen(); d != 0 {
		t.Errorf("DeltaLen = %d after auto-compaction, want 0", d)
	}
	man := e.Manifest()
	if man.TotalRecords() != 52 {
		t.Errorf("manifest records = %d, want 52", man.TotalRecords())
	}
	if man.Generation != e.Generation() {
		t.Errorf("manifest generation %d != engine generation %d", man.Generation, e.Generation())
	}
	if e.Generation() <= gen {
		t.Errorf("generation did not advance across auto-compaction: %d", e.Generation())
	}
	// Below the threshold the delta stays in memory.
	if err := e.AddData(dataObjs[32:37]...); err != nil {
		t.Fatal(err)
	}
	if d := e.DeltaLen(); d != 5 {
		t.Errorf("DeltaLen = %d, want 5 (below threshold)", d)
	}

	// CompactAfter < 0 disables auto-compaction entirely.
	e2 := NewEngine(Config{CompactAfter: -1})
	if err := e2.AddData(dataObjs[:20]...); err != nil {
		t.Fatal(err)
	}
	if err := e2.AddFeature(feats[:20]...); err != nil {
		t.Fatal(err)
	}
	if err := e2.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := e2.AddData(dataObjs[20:]...); err != nil {
		t.Fatal(err)
	}
	if d := e2.DeltaLen(); d != 20 {
		t.Errorf("DeltaLen = %d with auto-compaction disabled, want 20", d)
	}
}

// TestCompactSemantics: Compact is a no-op on an empty delta and performs
// the first seal on an unsealed engine.
func TestCompactSemantics(t *testing.T) {
	e := loadPaperExample(t, Config{})
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact on unsealed engine: %v", err)
	}
	if e.Manifest() == nil {
		t.Fatal("Compact did not seal the unsealed engine")
	}
	gen := e.Generation()
	if err := e.Compact(); err != nil {
		t.Fatalf("Compact with empty delta: %v", err)
	}
	if e.Generation() != gen {
		t.Error("no-op Compact bumped the generation")
	}
}

// TestWithDeltaFalse: the option restricts a query to the sealed base and
// is cached separately from the delta-inclusive execution.
func TestWithDeltaFalse(t *testing.T) {
	e := loadPaperExample(t, Config{})
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := e.AddData(DataObject{ID: 50, X: 3.8, Y: 5.4}); err != nil {
		t.Fatal(err)
	}
	q := Query{K: 3, Radius: 1.5, Keywords: []string{"italian"}}
	withDelta, err := e.QueryReport(q)
	if err != nil {
		t.Fatal(err)
	}
	baseOnly, err := e.QueryReport(q, WithDelta(false))
	if err != nil {
		t.Fatal(err)
	}
	if baseOnly.Counters[CounterCacheHit] == 1 {
		t.Error("WithDelta(false) served the delta-inclusive cache entry")
	}
	for _, r := range baseOnly.Results {
		if r.ID == 50 {
			t.Error("WithDelta(false) results contain a delta record")
		}
	}
	found := false
	for _, r := range withDelta.Results {
		if r.ID == 50 {
			found = true
		}
	}
	if !found {
		t.Errorf("delta-inclusive results missing the appended record: %v", withDelta.Results)
	}
	if baseOnly.Delta == nil || baseOnly.Delta.Records != 0 {
		t.Errorf("WithDelta(false) Report.Delta = %+v, want 0 records", baseOnly.Delta)
	}
	if got := withDelta.Counters[CounterDeltaRecords]; got != 1 {
		t.Errorf("%s = %d, want 1", CounterDeltaRecords, got)
	}
}

// TestDeltaPlannerCounters: a planned query over a sealed base plus a far
// appended cluster reports delta cell pruning when the query can only
// touch one side.
func TestDeltaPlannerCounters(t *testing.T) {
	dataObjs, feats := ingestWorkload(100, 23)
	e := NewEngine(Config{CompactAfter: -1})
	if err := e.AddData(dataObjs...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats...); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	// Appended records far outside the unit square, in opposite corners: a
	// small-radius query can reach neither the lone data object (no
	// feature cell within the radius) nor the lone feature (no data cell
	// within reach), so the planner must prune both delta cells.
	if err := e.AddData(DataObject{ID: 9001, X: 50, Y: 50}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(Feature{ID: 9001, X: -50, Y: -50, Keywords: []string{"espresso"}}); err != nil {
		t.Fatal(err)
	}
	rep, err := e.QueryReport(Query{K: 5, Radius: 0.05, Keywords: []string{"espresso"}}, WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta == nil || rep.Delta.Records != 2 {
		t.Fatalf("Report.Delta = %+v, want 2 visible delta records", rep.Delta)
	}
	if rep.Delta.Cells == 0 {
		t.Error("planned query did not partition the delta")
	}
	if rep.Delta.CellsPruned != rep.Delta.Cells {
		t.Errorf("delta cells pruned = %d of %d, want all (cluster unreachable)",
			rep.Delta.CellsPruned, rep.Delta.Cells)
	}
	if rep.Delta.RecordsSelected != 0 {
		t.Errorf("delta records selected = %d, want 0", rep.Delta.RecordsSelected)
	}
	if got := rep.Counters[CounterDeltaCellsPruned]; got != int64(rep.Delta.CellsPruned) {
		t.Errorf("%s = %d, want %d", CounterDeltaCellsPruned, got, rep.Delta.CellsPruned)
	}
	// A later append can make the far data object reachable: with a
	// perfectly matching feature next to it, the delta cells survive the
	// plan and the object is served.
	if err := e.AddFeature(Feature{ID: 9002, X: 50.001, Y: 50, Keywords: []string{"espresso"}}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(Query{K: 200, Radius: 0.05, Keywords: []string{"espresso"}},
		WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.ID == 9001 {
			found = true
		}
	}
	if !found {
		t.Errorf("appended far object not served after its feature arrived: %v", res)
	}
}
