package spq

// Tests for the context-aware query API: QueryContext cancellation, the
// error taxonomy at the engine boundary, idempotent Close, the
// WithCache/WithDelta option redesign, and Report.Options introspection.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spq/internal/core"
)

func contextTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	if err := e.LoadSynthetic("uniform", 1200); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	return e
}

func contextTestQuery(t *testing.T, e *Engine) Query {
	t.Helper()
	kws := e.FrequentKeywords(4)
	if len(kws) < 2 {
		t.Fatalf("only %d frequent keywords", len(kws))
	}
	return Query{K: 5, Radius: 0.05, Keywords: kws[:2]}
}

// TestQueryContextPreCanceled: an already-canceled context fails fast with
// ErrCanceled (carrying the context cause), before any job runs.
func TestQueryContextPreCanceled(t *testing.T) {
	e := contextTestEngine(t, Config{Seed: 3})
	defer e.Close()
	q := contextTestQuery(t, e)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, q)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled QueryContext returned %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not carry context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer dcancel()
	_, err = e.QueryContext(dctx, q)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline QueryContext returned %v, want ErrCanceled+DeadlineExceeded", err)
	}

	// The engine still serves after canceled queries.
	if _, err := e.Query(q); err != nil {
		t.Fatalf("engine broken after canceled queries: %v", err)
	}
}

// TestQueryContextCancelMidFlight: canceling while queries run never
// wedges the engine — every admission slot the canceled queries held is
// released and a full round of follow-up queries completes. (The
// counter-verified "no further task starts" assertion lives at the
// mapreduce layer in TestRunContextCancelStopsTaskStarts.)
func TestQueryContextCancelMidFlight(t *testing.T) {
	e := contextTestEngine(t, Config{Seed: 5, MapSlots: 2, ReduceSlots: 2, QueryCache: -1})
	defer e.Close()
	q := contextTestQuery(t, e)

	const rounds = 6
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := e.QueryContext(ctx, q)
			done <- err
		}()
		time.Sleep(time.Duration(i) * 2 * time.Millisecond) // vary the cancel point
		cancel()
		err := <-done
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("round %d: QueryContext returned %v, want nil or ErrCanceled", i, err)
		}
	}
	// All slots must be back: concurrent queries at full width succeed.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.QueryContext(context.Background(), q); err != nil {
				t.Errorf("post-cancel query failed: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestCloseIdempotent: Close twice is fine, Close during in-flight queries
// drains them, and queries after Close fail with ErrClosed.
func TestCloseIdempotent(t *testing.T) {
	e := contextTestEngine(t, Config{Seed: 7})
	q := contextTestQuery(t, e)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Started before Close: must either complete or—if it lost the
			// race to beginQuery—fail with ErrClosed. Never a torn state.
			if _, err := e.Query(q); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("in-flight query during Close: %v", err)
			}
		}()
	}
	var closeWg sync.WaitGroup
	for i := 0; i < 2; i++ {
		closeWg.Add(1)
		go func() {
			defer closeWg.Done()
			if err := e.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	closeWg.Wait()
	wg.Wait()

	if err := e.Close(); err != nil {
		t.Fatalf("repeated Close returned %v", err)
	}
	_, err := e.QueryContext(context.Background(), q)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("query after Close returned %v, want ErrClosed", err)
	}
}

// TestInvalidQueryTaxonomy: boundary validation wraps ErrInvalidQuery and
// names the offending field.
func TestInvalidQueryTaxonomy(t *testing.T) {
	e := contextTestEngine(t, Config{Seed: 9})
	defer e.Close()

	valid := Query{K: 1, Radius: 0.1, Keywords: []string{"x"}}
	cases := []struct {
		name  string
		q     Query
		opts  []QueryOption
		field string
	}{
		{"zero k", Query{K: 0, Radius: 0.1, Keywords: []string{"x"}}, nil, "K"},
		{"negative k", Query{K: -2, Radius: 0.1, Keywords: []string{"x"}}, nil, "K"},
		{"negative radius", Query{K: 1, Radius: -1, Keywords: []string{"x"}}, nil, "Radius"},
		{"no keywords", Query{K: 1, Radius: 0.1}, nil, "Keywords"},
		{"only empty keywords", Query{K: 1, Radius: 0.1, Keywords: []string{"", ""}}, nil, "Keywords"},
		{"unknown mode", Query{K: 1, Radius: 0.1, Keywords: []string{"x"}, Mode: 7}, nil, "Mode"},
		{"nearest mode with early termination", Query{K: 1, Radius: 0.1, Keywords: []string{"x"}, Mode: ScoreNearest},
			[]QueryOption{WithAlgorithm(ESPQSco)}, "Mode"},
		{"zero grid", valid, []QueryOption{WithGrid(0)}, "grid size"},
		// A job on 10,000 cells a side runs for tens of seconds; the grid
		// is capped before any work starts.
		{"huge grid", valid, []QueryOption{WithGrid(10000)}, "grid size"},
		{"grid past the cap", valid, []QueryOption{WithGrid(core.MaxGridN + 1)}, "grid size"},
		// A billion reducers would run the process out of memory in the
		// map tasks' partition slices.
		{"huge reducers", valid, []QueryOption{WithReducers(1_000_000_000)}, "reducers"},
		{"reducers past the cap", valid, []QueryOption{WithReducers(core.MaxReducers + 1)}, "reducers"},
		// A non-finite extent used to build a data view no query could hit
		// again and then fail outside the taxonomy.
		{"NaN bounds", valid, []QueryOption{WithBounds(math.NaN(), 0, 1, 1)}, "bounds"},
		{"infinite bounds", valid, []QueryOption{WithBounds(0, 0, math.Inf(1), 1)}, "bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.Query(tc.q, tc.opts...)
			if !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("got %v, want ErrInvalidQuery", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name field %s", err, tc.field)
			}
			if ErrorCode(err) != CodeInvalidQuery {
				t.Errorf("ErrorCode(%v) = %q", err, ErrorCode(err))
			}
		})
	}
}

// TestWithCacheDeltaRedesign: the boolean options compose — a later option
// overrides an earlier one — and Report.Options reflects what actually
// applied.
func TestWithCacheDeltaRedesign(t *testing.T) {
	e := contextTestEngine(t, Config{Seed: 11})
	defer e.Close()
	q := contextTestQuery(t, e)

	off, err := e.QueryReport(q, WithCache(false), WithDelta(false))
	if err != nil {
		t.Fatal(err)
	}
	if opt := off.Options(); opt.Cache || opt.Delta {
		t.Fatalf("WithCache(false), WithDelta(false) options = %+v, want both off", opt)
	}
	if off.Counters[CounterCacheMiss] != 0 || off.Counters[CounterCacheHit] != 0 {
		t.Fatalf("WithCache(false) touched the cache: %v", off.Counters)
	}

	// A later option overrides an earlier one.
	on, err := e.QueryReport(q, WithCache(false), WithDelta(false), WithCache(true), WithDelta(true))
	if err != nil {
		t.Fatal(err)
	}
	if opt := on.Options(); !opt.Cache || !opt.Delta {
		t.Fatalf("re-enabled options = %+v, want cache and delta on", opt)
	}
	if !reflect.DeepEqual(off.Results, on.Results) {
		t.Fatal("cache/delta participation changed results on a delta-free engine")
	}

	// Defaults: cache and delta participate.
	rep, err := e.QueryReport(q)
	if err != nil {
		t.Fatal(err)
	}
	if opt := rep.Options(); !opt.Cache || !opt.Delta {
		t.Fatalf("default options = %+v, want cache and delta on", opt)
	}
	if rep.Counters[CounterCacheHit] != 1 {
		t.Fatalf("default execution missed the entry the re-enabled one stored: %v", rep.Counters)
	}
}

// TestReportOptionsIntrospection: Options echoes the resolved settings,
// including on cache hits.
func TestReportOptionsIntrospection(t *testing.T) {
	e := contextTestEngine(t, Config{Seed: 13})
	defer e.Close()
	q := contextTestQuery(t, e)

	rep, err := e.QueryReport(q, WithAlgorithm(ESPQLen), WithGrid(7), WithReducers(3))
	if err != nil {
		t.Fatal(err)
	}
	opt := rep.Options()
	if opt.Algorithm != ESPQLen || opt.GridN != 7 || opt.Reducers != 3 {
		t.Fatalf("options = %+v, want eSPQlen/grid 7/3 reducers", opt)
	}

	// Same query again: a cache hit must carry the same effective options.
	hit, err := e.QueryReport(q, WithAlgorithm(ESPQLen), WithGrid(7), WithReducers(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := hit.Options(); got != opt {
		t.Fatalf("cache-hit options %+v != original %+v", got, opt)
	}
	if e.CacheStats().Hits == 0 {
		t.Fatal("second identical query did not hit the cache")
	}

	// An engine with the cache disabled reports Cache=false even by default.
	ne := contextTestEngine(t, Config{Seed: 13, QueryCache: -1})
	defer ne.Close()
	rep2, err := ne.QueryReport(contextTestQuery(t, ne))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Options().Cache {
		t.Fatal("cache-disabled engine reports cache participation")
	}
}
