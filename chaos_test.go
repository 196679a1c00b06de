package spq

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosSeeds returns the fault-plan seeds the chaos property tests sweep.
// CI widens the sweep through SPQ_CHAOS_SEEDS (comma-separated); every
// seed replays deterministically, so a failing seed is a complete repro.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("SPQ_CHAOS_SEEDS")
	if env == "" {
		if testing.Short() {
			return []int64{1}
		}
		return []int64{1, 2}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("SPQ_CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// chaosEngine builds a sealed DFS-backed engine over the clustered
// synthetic dataset. The chaos tests pass SegmentCache: -1, so every
// query reads the faulty DFS instead of cached blocks.
func chaosEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	if err := e.LoadSynthetic("clustered", 500); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	return e
}

// diffResults returns a description of the first difference between two
// result lists (ids and scores, in order), or "" when identical.
func diffResults(got, want []Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			return fmt.Sprintf("result[%d] = %d/%g, want %d/%g",
				i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return ""
}

// sameResults requires identical ids and scores in identical order.
func sameResults(t *testing.T, ctx string, got, want []Result) {
	t.Helper()
	if d := diffResults(got, want); d != "" {
		t.Fatalf("%s: %s", ctx, d)
	}
}

// The chaos identity property: under any seeded fault schedule that leaves
// at least one healthy replica per block (transient read errors, one
// corrupted replica of every Nth block, nodes crashing and reviving
// mid-run), every algorithm on DFS-backed storage returns
// byte-identical results to a fault-free engine over the same data.
func TestChaosResultIdentityUnderFaults(t *testing.T) {
	seeds := chaosSeeds(t)
	t.Run("spq3", func(t *testing.T) {
		base := Config{
			Nodes: 6, BlockSize: 2 << 10, Seed: 5,
			QueryCache: -1, SegmentCache: -1, MaxAttempts: 5, RetryBackoff: -1,
		}
		clean := chaosEngine(t, base)
		q := Query{K: 10, Radius: 0.08, Keywords: clean.FrequentKeywords(2)}
		want := make(map[Algorithm][]Result)
		for _, alg := range Algorithms() {
			res, err := clean.Query(q, WithAlgorithm(alg), WithGrid(8))
			if err != nil {
				t.Fatalf("clean %v: %v", alg, err)
			}
			want[alg] = res
		}
		for _, seed := range seeds {
			cfg := base
			cfg.Faults = &FaultPlan{
				Seed:              seed,
				TransientReadProb: 0.1,
				CorruptEveryN:     4,
				// One node down at a time: with replication 3 every
				// block keeps at least one healthy replica.
				Crashes: []CrashEvent{
					{AtRead: 5, Node: 1},
					{AtRead: 40, Node: 1, Revive: true},
					{AtRead: 80, Node: 2},
					{AtRead: 160, Node: 2, Revive: true},
				},
			}
			faulty := chaosEngine(t, cfg)
			for _, alg := range Algorithms() {
				rep, err := faulty.QueryReport(q, WithAlgorithm(alg), WithGrid(8))
				if err != nil {
					t.Fatalf("seed %d %v: %v", seed, alg, err)
				}
				sameResults(t, "under faults", rep.Results, want[alg])
			}
			if fs := faulty.FaultStats(); fs.CorruptionsInjected == 0 {
				t.Errorf("seed %d: fault plan injected no corruption", seed)
			}
		}
	})
}

// A task may fail transiently on every attempt but its last and the query
// must still complete with exact results, with the retries and the
// injected faults visible on the report. Two legs, because the first reads
// of an in-process query are its data-view build's, which runs outside the
// MapReduce task retry loop with an attempt budget of its own:
//
//   - "map task": the features are sealed and the data objects appended,
//     so the view holds no sealed data block, its build reads nothing,
//     and the first failing reads are the first map task's;
//   - "view build": everything is sealed, so the failing reads are the
//     view build's, and the map tasks then read a healed cluster.
//
// In both, a budget of 6 failed replica reads with replication 3 fails
// two whole block reads: the reader burns MaxAttempts-1 failures and must
// still complete on its last attempt.
func TestChaosTaskRetriesThenCompletes(t *testing.T) {
	base := Config{
		Nodes: 4, BlockSize: 4 << 10, Seed: 7,
		QueryCache: -1, SegmentCache: -1, MapSlots: 1, ReduceSlots: 1,
		MaxAttempts: 3, RetryBackoff: -1,
	}
	dataObjs, feats := clusteredCorpus(500, 4)
	q := Query{K: 5, Radius: 0.1, Keywords: []string{"common1", "common2"}}
	for _, leg := range []struct {
		name                 string
		sealData             bool
		retryMap, viewMisses int64
	}{
		{"map task", false, 2, 1},
		{"view build", true, 0, 1},
	} {
		t.Run(leg.name, func(t *testing.T) {
			load := func(cfg Config) *Engine {
				e := NewEngine(cfg)
				if err := e.AddFeature(feats...); err != nil {
					t.Fatal(err)
				}
				if leg.sealData {
					if err := e.AddData(dataObjs...); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Seal(); err != nil {
					t.Fatal(err)
				}
				if !leg.sealData {
					if err := e.AddData(dataObjs...); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}
			want, err := load(base).Query(q, WithGrid(6))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("query returns nothing; the corpus is off")
			}
			cfg := base
			cfg.Faults = &FaultPlan{FailFirstReads: 6}
			rep, err := load(cfg).QueryReport(q, WithGrid(6))
			if err != nil {
				t.Fatalf("query with exhausted-minus-one retry budget failed: %v", err)
			}
			sameResults(t, "after retries", rep.Results, want)
			if got := rep.Counters[CounterRetryMap]; got != leg.retryMap {
				t.Errorf("%s = %d, want %d", CounterRetryMap, got, leg.retryMap)
			}
			if got := rep.Counters[CounterFaultTransient]; got != 6 {
				t.Errorf("%s = %d, want 6", CounterFaultTransient, got)
			}
			if got := rep.Counters[CounterViewMiss]; got != leg.viewMisses {
				t.Errorf("%s = %d, want %d", CounterViewMiss, got, leg.viewMisses)
			}
		})
	}
}

// Self-healing drill: after a node dies, Repair re-replicates its blocks
// onto the survivors, so a later loss of every original replica holder
// still serves exact results from the repaired copies. Genuine total loss
// fails with the typed sentinels — never a silently wrong top-k.
func TestChaosRepairSurvivesNodeLoss(t *testing.T) {
	e := chaosEngine(t, Config{
		Nodes: 4, BlockSize: 2 << 10, Seed: 3,
		QueryCache: -1, SegmentCache: -1, RetryBackoff: -1,
	})
	q := Query{K: 5, Radius: 0.1, Keywords: e.FrequentKeywords(2)}
	want, err := e.Query(q, WithGrid(6))
	if err != nil {
		t.Fatal(err)
	}

	// One node down: reads fail over, results unchanged.
	if err := e.KillNode(0); err != nil {
		t.Fatal(err)
	}
	rep, err := e.QueryReport(q, WithGrid(6))
	if err != nil {
		t.Fatalf("query with one dead node: %v", err)
	}
	sameResults(t, "one node dead", rep.Results, want)
	if rep.Counters[CounterFaultFailover] == 0 {
		t.Error("no failover reads counted with a dead node")
	}

	// Repair re-replicates node 0's blocks across the three survivors, so
	// every block now has a live replica on each of nodes 1, 2 and 3.
	st := e.Repair()
	if st.ReplicasAdded == 0 {
		t.Fatalf("repair added no replicas after node loss: %+v", st)
	}
	if err := e.KillNode(1); err != nil {
		t.Fatal(err)
	}
	if err := e.KillNode(2); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q, WithGrid(6))
	if err != nil {
		t.Fatalf("query with only the repaired node alive: %v", err)
	}
	sameResults(t, "post-repair single survivor", res, want)

	// Total loss: typed error, no results.
	if err := e.KillNode(3); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(q, WithGrid(6))
	if err == nil {
		t.Fatalf("query with no live nodes returned %d results", len(res))
	}
	if !errors.Is(err, ErrDataUnavailable) {
		t.Errorf("total loss error is not ErrDataUnavailable: %v", err)
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("total loss error is not ErrRetriesExhausted: %v", err)
	}

	// One revival is enough: the repaired node holds every block.
	if err := e.ReviveNode(3); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(q, WithGrid(6))
	if err != nil {
		t.Fatalf("query after revival: %v", err)
	}
	sameResults(t, "after revival", res, want)
}

// Nodes dying and reviving under live concurrent queries (plus concurrent
// repair passes) must never corrupt a result: with at most one node down
// at a time every query succeeds and returns exactly the reference top-k.
// Run under -race in CI.
func TestChaosKillReviveDuringConcurrentQueries(t *testing.T) {
	e := chaosEngine(t, Config{
		Nodes: 6, BlockSize: 2 << 10, Seed: 11,
		QueryCache: -1, SegmentCache: -1, MaxAttempts: 5, RetryBackoff: -1,
	})
	q := Query{K: 5, Radius: 0.1, Keywords: e.FrequentKeywords(2)}
	want, err := e.Query(q, WithGrid(6))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := i % e.NumNodes()
			if err := e.KillNode(n); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(500 * time.Microsecond)
			if i%3 == 0 {
				e.Repair()
			}
			if err := e.ReviveNode(n); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const workers, perWorker = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				alg := Algorithms()[(w+i)%len(Algorithms())]
				res, err := e.Query(q, WithAlgorithm(alg), WithGrid(6))
				if err != nil {
					t.Errorf("worker %d query %d (%v): %v", w, i, alg, err)
					return
				}
				if d := diffResults(res, want); d != "" {
					t.Errorf("worker %d query %d (%v): %s", w, i, alg, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
}
