package spq

// Tests for the concurrent serving layer (snapshot reads, admission
// counters, query cache) and the load/query input-validation fixes.

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestValidateQueryNonFiniteRadius(t *testing.T) {
	e := loadPaperExample(t, Config{})
	cases := []struct {
		name   string
		q      Query
		wantOK bool
	}{
		{"nan radius", Query{K: 1, Radius: math.NaN(), Keywords: []string{"italian"}}, false},
		{"+inf radius", Query{K: 1, Radius: math.Inf(1), Keywords: []string{"italian"}}, false},
		{"-inf radius", Query{K: 1, Radius: math.Inf(-1), Keywords: []string{"italian"}}, false},
		{"negative radius", Query{K: 1, Radius: -1, Keywords: []string{"italian"}}, false},
		{"zero radius", Query{K: 1, Radius: 0, Keywords: []string{"italian"}}, true},
		{"finite radius", Query{K: 1, Radius: 1.5, Keywords: []string{"italian"}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.Query(tc.q)
			if tc.wantOK && err != nil {
				t.Fatalf("valid query rejected: %v", err)
			}
			if !tc.wantOK && err == nil {
				t.Fatalf("invalid query %+v accepted", tc.q)
			}
		})
	}
}

func TestAddRejectsNonFiniteCoordinates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		x, y float64
	}{
		{"nan x", nan, 1},
		{"nan y", 1, nan},
		{"+inf x", inf, 1},
		{"-inf y", 1, -inf},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Config{})
			err := e.AddData(DataObject{ID: 7, X: tc.x, Y: tc.y})
			if err == nil {
				t.Fatal("non-finite data coordinate accepted")
			}
			if !strings.Contains(err.Error(), "7") {
				t.Errorf("error does not name the offending id: %v", err)
			}
			err = e.AddFeature(Feature{ID: 8, X: tc.x, Y: tc.y, Keywords: []string{"a"}})
			if err == nil {
				t.Fatal("non-finite feature coordinate accepted")
			}
			if !strings.Contains(err.Error(), "8") {
				t.Errorf("error does not name the offending id: %v", err)
			}
			if nd, nf := e.Len(); nd != 0 || nf != 0 {
				t.Errorf("rejected objects were loaded: Len = %d, %d", nd, nf)
			}
		})
	}

	// A batch with one bad object loads nothing.
	e := NewEngine(Config{})
	err := e.AddData(
		DataObject{ID: 1, X: 0, Y: 0},
		DataObject{ID: 2, X: nan, Y: 0},
		DataObject{ID: 3, X: 1, Y: 1},
	)
	if err == nil {
		t.Fatal("batch with NaN coordinate accepted")
	}
	if nd, _ := e.Len(); nd != 0 {
		t.Errorf("partial batch loaded: %d data objects", nd)
	}
}

func TestLoadLinesValidation(t *testing.T) {
	e := NewEngine(Config{})
	err := e.LoadLines(strings.NewReader("D\t1\t0.5\t0.5\nD\t2\tNaN\t0.5\n"))
	if err == nil {
		t.Fatal("NaN coordinate line accepted")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "2") {
		t.Errorf("error does not locate the bad record: %v", err)
	}

	e = NewEngine(Config{})
	err = e.LoadLines(strings.NewReader("D\t1\t0.5\t0.5\nD\t1\t0.6\t0.6\n"))
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate id line: err = %v, want duplicate-id error", err)
	}
}

// TestRejectedBatchInternsNoWords: a rejected load batch leaves the
// keyword dictionary as it was, whether a line is malformed, a line's id
// is a duplicate, or an AddFeature object has a non-finite coordinate;
// the same feature lines, valid, intern their words.
func TestRejectedBatchInternsNoWords(t *testing.T) {
	e := NewEngine(Config{})
	good := "F\t1\t0.1\t0.1\ta,b\nF\t2\t0.2\t0.2\tc\n"
	for i, bad := range []func() error{
		func() error { return e.LoadLines(strings.NewReader(good + "F\tbad\n")) },
		func() error { return e.LoadLines(strings.NewReader(good + "F\t1\t0.3\t0.3\td\n")) },
		func() error {
			return e.AddFeature(Feature{ID: 1, X: 0.1, Y: 0.1, Keywords: []string{"a"}}, Feature{ID: 2, X: math.NaN(), Keywords: []string{"b"}})
		},
	} {
		if err := bad(); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		if n := e.dict.Size(); n != 0 {
			t.Fatalf("rejected batch %d grew the dictionary from 0 to %d words", i, n)
		}
	}
	if err := e.LoadLines(strings.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	if n := e.dict.Size(); n != 3 {
		t.Errorf("an accepted batch of 3 words left %d in the dictionary", n)
	}
}

func TestDuplicateIDsRejected(t *testing.T) {
	e := NewEngine(Config{})
	// Same call.
	err := e.AddData(DataObject{ID: 1, X: 0, Y: 0}, DataObject{ID: 1, X: 1, Y: 1})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("same-batch duplicate: err = %v", err)
	}
	if nd, _ := e.Len(); nd != 0 {
		t.Fatalf("rejected batch partially loaded: %d", nd)
	}
	// Separate calls.
	if err := e.AddData(DataObject{ID: 1, X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	err = e.AddData(DataObject{ID: 1, X: 2, Y: 2})
	if err == nil || !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), "1") {
		t.Fatalf("cross-call duplicate: err = %v", err)
	}
	// Features have their own namespace: a feature may reuse a data id,
	// but not another feature's.
	if err := e.AddFeature(Feature{ID: 1, X: 0.1, Y: 0.1, Keywords: []string{"a"}}); err != nil {
		t.Fatalf("feature id equal to a data id rejected: %v", err)
	}
	err = e.AddFeature(Feature{ID: 1, X: 0.2, Y: 0.2, Keywords: []string{"b"}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate feature id: err = %v", err)
	}
	// LoadSynthetic twice overlaps generated ids and must fail too.
	e2 := NewEngine(Config{})
	if err := e2.LoadSynthetic("uniform", 100); err != nil {
		t.Fatal(err)
	}
	if err := e2.LoadSynthetic("uniform", 100); err == nil {
		t.Error("second LoadSynthetic with overlapping ids accepted")
	}
}

// Property: across all algorithms, a top-k list never
// contains the same data object twice. Before the duplicate-id rejection,
// loading an id twice produced exactly that corruption.
func TestNoDuplicateResultsAcrossAlgorithmsAndStorages(t *testing.T) {
	e := NewEngine(Config{Nodes: 4, BlockSize: 8 << 10, Seed: 11})
	if err := e.LoadSynthetic("uniform", 600); err != nil {
		t.Fatal(err)
	}
	// The engine now rejects the duplicate load outright...
	if err := e.AddData(DataObject{ID: 0, X: 0.5, Y: 0.5}); err == nil {
		t.Fatal("duplicate data id accepted")
	}
	kws := e.FrequentKeywords(2)
	for _, alg := range Algorithms() {
		// ...and the served top-k holds each id at most once.
		res, err := e.Query(Query{K: 50, Radius: 0.15, Keywords: kws},
			WithAlgorithm(alg), WithGrid(6), WithCache(false))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		seen := make(map[uint64]bool, len(res))
		for _, r := range res {
			if seen[r.ID] {
				t.Errorf("%v: id %d appears twice in top-k", alg, r.ID)
			}
			seen[r.ID] = true
		}
	}
}

// servingWorkload builds a sealed engine and a slice of distinct queries.
func servingWorkload(t *testing.T, cfg Config, n int) (*Engine, []Query) {
	t.Helper()
	e := NewEngine(cfg)
	if err := e.LoadSynthetic("uniform", 2000); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	kws := e.FrequentKeywords(16)
	if len(kws) < 5 {
		t.Fatalf("only %d keywords", len(kws))
	}
	queries := make([]Query, n)
	for i := range queries {
		queries[i] = Query{
			K:      5,
			Radius: 0.05,
			Keywords: []string{
				kws[i%len(kws)],
				kws[(i*3+1)%(len(kws)-1)],
			},
		}
	}
	return e, queries
}

// TestConcurrentQueriesMatchSerial is the serving-correctness test: N
// goroutines hammer one engine with a mixed workload and every query's
// results must equal the serial execution's, with the cache off and on.
// Run under -race this also proves the snapshot read path race-clean.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	for _, cacheOn := range []bool{false, true} {
		name := "cache-off"
		cfg := Config{QueryCache: -1}
		if cacheOn {
			name = "cache-on"
			cfg = Config{}
		}
		t.Run(name, func(t *testing.T) {
			const nq, goroutines, rounds = 12, 8, 3
			e, queries := servingWorkload(t, cfg, nq)

			serial := make([][]Result, nq)
			for i, q := range queries {
				res, err := e.Query(q, WithCache(false))
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = res
			}

			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						i := (g + r*goroutines) % nq
						res, err := e.Query(queries[i])
						if err != nil {
							errs[g] = err
							return
						}
						if !reflect.DeepEqual(res, serial[i]) {
							errs[g] = fmt.Errorf("query %d: concurrent results %v != serial %v", i, res, serial[i])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}
			stats := e.CacheStats()
			if cacheOn && stats.Hits == 0 {
				t.Error("repeated concurrent workload produced no cache hits")
			}
			if !cacheOn && (stats.Hits != 0 || stats.Misses != 0) {
				t.Errorf("disabled cache recorded traffic: %+v", stats)
			}
		})
	}
}

func TestQueryCacheSemantics(t *testing.T) {
	e := loadPaperExample(t, Config{})
	q := Query{K: 2, Radius: 1.5, Keywords: []string{"italian"}}

	first, err := e.QueryReport(q, WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if first.Counters[CounterCacheMiss] != 1 || first.Counters[CounterCacheHit] != 0 {
		t.Errorf("first execution counters: hit=%d miss=%d",
			first.Counters[CounterCacheHit], first.Counters[CounterCacheMiss])
	}
	second, err := e.QueryReport(q, WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if second.Counters[CounterCacheHit] != 1 {
		t.Errorf("repeat execution not served from cache: %v", second.Counters)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Errorf("cached results differ: %v vs %v", first.Results, second.Results)
	}
	// Mutating a served report must not corrupt the cache.
	second.Results[0].Score = -1
	third, err := e.QueryReport(q, WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if third.Results[0].Score == -1 {
		t.Error("caller mutation leaked into the cache")
	}

	// Keyword order and duplicates canonicalize to the same entry.
	if _, err := e.QueryReport(Query{K: 2, Radius: 1.5, Keywords: []string{"italian", "italian"}}, WithGrid(4)); err != nil {
		t.Fatal(err)
	}
	// A different option set is a different entry.
	other, err := e.QueryReport(q, WithGrid(5))
	if err != nil {
		t.Fatal(err)
	}
	if other.Counters[CounterCacheHit] != 0 {
		t.Error("different grid served from the same cache entry")
	}
	// WithCache(false) bypasses both lookup and store.
	before := e.CacheStats()
	bypass, err := e.QueryReport(q, WithGrid(4), WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if bypass.Counters[CounterCacheHit] != 0 || bypass.Counters[CounterCacheMiss] != 0 {
		t.Errorf("WithCache(false) touched the cache: %v", bypass.Counters)
	}
	if after := e.CacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("WithCache(false) changed cache stats: %+v -> %+v", before, after)
	}
}

// TestQueryCacheKeyNoCollision pins the length-prefixed keyword
// encoding: keyword sets that concatenate identically must not share a
// cache entry.
func TestQueryCacheKeyNoCollision(t *testing.T) {
	cfg := queryConfig{}
	a := cacheKey(1, Query{K: 1, Radius: 1, Keywords: []string{"a\x00b"}}, &cfg)
	b := cacheKey(1, Query{K: 1, Radius: 1, Keywords: []string{"a", "b"}}, &cfg)
	if a == b {
		t.Fatalf("distinct keyword sets share cache key %q", a)
	}
}

func TestQueryCacheLRUEviction(t *testing.T) {
	e := loadPaperExample(t, Config{QueryCache: 2})
	qa := Query{K: 1, Radius: 1.5, Keywords: []string{"italian"}}
	qb := Query{K: 1, Radius: 1.5, Keywords: []string{"chinese"}}
	qc := Query{K: 1, Radius: 1.5, Keywords: []string{"greek"}}
	for _, q := range []Query{qa, qb, qc} { // qc evicts qa
		if _, err := e.Query(q, WithGrid(4)); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.CacheStats(); s.Entries != 2 {
		t.Fatalf("entries = %d, want 2", s.Entries)
	}
	rep, err := e.QueryReport(qa, WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters[CounterCacheHit] != 0 {
		t.Error("evicted entry served as a hit")
	}
	// Re-executing qa cached it again, evicting qb; qc stayed resident.
	rep, err = e.QueryReport(qc, WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters[CounterCacheHit] != 1 {
		t.Error("resident entry not served as a hit")
	}
}

// TestSchedCountersSurfaceInReport checks the admission-control counters
// are visible through the public report.
func TestSchedCountersSurfaceInReport(t *testing.T) {
	e := loadPaperExample(t, Config{})
	rep, err := e.QueryReport(Query{K: 1, Radius: 1.5, Keywords: []string{"italian"}}, WithGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters["spq.sched.admitted"] == 0 {
		t.Errorf("spq.sched.admitted missing from report counters: %v", rep.Counters)
	}
}
