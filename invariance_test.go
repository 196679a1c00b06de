package spq

import (
	"fmt"
	"math/rand"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// A reduce task keeps one top-k list across all its cells, so its τ — and
// with it how many features a cell examines — depends on which cells share
// a task. The results must not. These relations hold them to that.

// tiedCorpus is a small corpus built for ties: a six-word vocabulary makes
// few distinct Jaccard scores, and every third object sits on an earlier
// object's coordinates, so objects tie on score across the k-th place.
func tiedCorpus(seed int64, n int) ([]DataObject, []Feature) {
	rng := rand.New(rand.NewSource(seed))
	var pts [][2]float64
	var dataObjs []DataObject
	var feats []Feature
	for i := 0; i < n; i++ {
		p := [2]float64{rng.Float64(), rng.Float64()}
		if len(pts) > 0 && rng.Intn(3) == 0 {
			p = pts[rng.Intn(len(pts))]
		}
		pts = append(pts, p)
		if i%2 == 0 {
			dataObjs = append(dataObjs, DataObject{ID: uint64(i + 1), X: p[0], Y: p[1]})
			continue
		}
		kws := make([]string, 1+rng.Intn(3))
		for j := range kws {
			kws[j] = fmt.Sprintf("w%d", rng.Intn(6))
		}
		feats = append(feats, Feature{ID: uint64(i + 1), X: p[0], Y: p[1], Keywords: kws})
	}
	return dataObjs, feats
}

// sealedEngine loads the objects into an engine with configuration cfg
// and seals it.
func sealedEngine(t *testing.T, cfg Config, dataObjs []DataObject, feats []Feature) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	if err := e.AddData(dataObjs...); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFeature(feats...); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	return e
}

// invarianceCase is one (algorithm, query) pair of the relations.
type invarianceCase struct {
	alg Algorithm
	q   Query
}

// invarianceCases crosses the three algorithms with the range and
// influence modes, plus pSPQ's nearest mode, over queries at k = 5 and 12.
func invarianceCases() []invarianceCase {
	var cases []invarianceCase
	for _, q := range []Query{
		{K: 5, Radius: 0.06, Keywords: []string{"w1"}},
		{K: 12, Radius: 0.1, Keywords: []string{"w2", "w4"}},
	} {
		for _, mode := range []ScoringMode{ScoreRange, ScoreInfluence, ScoreNearest} {
			mq := q
			mq.Mode = mode
			for _, alg := range Algorithms() {
				if mode != ScoreNearest || alg == PSPQ {
					cases = append(cases, invarianceCase{alg, mq})
				}
			}
		}
	}
	return cases
}

// TestDistributedReducerInvariance: results are the R-tree oracle's, ids
// and bitwise scores, whatever the reducer count R ∈ {1, 2, 3, 7, gridN²},
// the cell→task assignment (round-robin or load-balanced), the storage,
// and whether tasks run in-process or on two loopback workers. The
// in-process engine has one reduce slot, so consecutive tasks reuse one
// lane's context, and the corpus forces ties at τ.
func TestDistributedReducerInvariance(t *testing.T) {
	const gridN = 5
	reducers := []int{1, 2, 3, 7, gridN * gridN}
	dataObjs, feats := tiedCorpus(31, 900)
	cases := invarianceCases()
	want := make([][]Result, len(cases))
	tied := false
	for i, c := range cases {
		want[i] = oracleResults(dataObjs, feats, c.q)
		more := c.q
		more.K++
		if next := oracleResults(dataObjs, feats, more); len(next) > c.q.K && next[c.q.K].Score == next[c.q.K-1].Score {
			tied = true
		}
	}
	if !tied {
		t.Fatal("no query ties at τ: the corpus does not exercise the canonical tie-break")
	}
	check := func(t *testing.T, e *Engine, label string) {
		t.Helper()
		for i, c := range cases {
			for _, r := range reducers {
				got, err := e.Query(c.q, WithAlgorithm(c.alg), WithGrid(gridN), WithReducers(r), WithCache(false))
				if err != nil {
					t.Fatalf("%s %v %v k=%d R=%d: %v", label, c.alg, c.q.Mode, c.q.K, r, err)
				}
				if !resultsEqual(got, want[i]) {
					t.Errorf("%s %v %v k=%d R=%d differs from the oracle\noracle: %+v\nengine: %+v",
						label, c.alg, c.q.Mode, c.q.K, r, want[i], got)
				}
			}
		}
	}
	for _, st := range oracleStorages {
		t.Run(st.name, func(t *testing.T) {
			cfg := Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9, MapSlots: 2, ReduceSlots: 1}
			check(t, sealedEngine(t, cfg, dataObjs, feats), st.name)
		})
	}
	t.Run("workers-2", func(t *testing.T) {
		cfg := Config{Nodes: 4, BlockSize: 4 << 10, Seed: 9, MapSlots: 2, ReduceSlots: 1, Workers: distWorkers(t, 2, 1)}
		e := sealedEngine(t, cfg, dataObjs, feats)
		t.Cleanup(func() { e.Close() })
		check(t, e, "workers-2")
		rep, err := e.QueryReport(cases[0].q, WithAlgorithm(cases[0].alg), WithGrid(gridN), WithReducers(3), WithCache(false))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Counters[CounterExecFallbackLocal] != 0 {
			t.Error("the job fell back to local execution")
		}
	})
	// The engine assigns cells round-robin; a cost-based LPT table is
	// reachable through core directly.
	t.Run("load-balance", func(t *testing.T) {
		dict := text.NewDict()
		var objs []data.Object
		for _, o := range dataObjs {
			objs = append(objs, data.Object{Kind: data.DataObject, ID: o.ID, Loc: geo.Point{X: o.X, Y: o.Y}})
		}
		for _, f := range feats {
			objs = append(objs, data.Object{Kind: data.FeatureObject, ID: f.ID, Loc: geo.Point{X: f.X, Y: f.Y}, Keywords: dict.InternAll(f.Keywords)})
		}
		cluster := mapreduce.NewCluster(nil, 2, 1)
		bounds := geo.Rect{MaxX: 1, MaxY: 1}
		for i, c := range cases {
			cq := core.Query{K: c.q.K, Radius: c.q.Radius, Keywords: dict.InternAll(c.q.Keywords), Mode: c.q.Mode}
			weights, err := core.CellWeights(mapreduce.NewMemorySource(objs, 3), grid.New(bounds, gridN, gridN), cq)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reducers {
				for _, balance := range []bool{false, true} {
					var table []int32
					if balance {
						table = core.BalanceCells(weights, r)
					}
					rep, err := core.Run(c.alg, mapreduce.NewMemorySource(objs, 3), cq, core.Options{
						Cluster: cluster, Bounds: bounds, GridN: gridN,
						NumReducers: r, CellReducer: table,
					})
					if err != nil {
						t.Fatal(err)
					}
					if got := toResults(rep.Results); !resultsEqual(got, want[i]) {
						t.Errorf("%v %v k=%d R=%d balance=%v differs from the oracle\noracle: %+v\ncore:   %+v",
							c.alg, c.q.Mode, c.q.K, r, balance, want[i], got)
					}
				}
			}
		}
	})
}

// TestTopKPrefixOfTopKPlusOne is a relation that needs no reference
// engine: the top-k is the first k of the top-(k+1), on every algorithm
// and storage, with ties at τ resolved the same way at both sizes.
func TestTopKPrefixOfTopKPlusOne(t *testing.T) {
	dataObjs, feats := tiedCorpus(37, 900)
	for _, st := range oracleStorages {
		e := sealedEngine(t, Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9}, dataObjs, feats)
		for _, alg := range Algorithms() {
			for _, k := range []int{1, 5, 10} {
				q := Query{K: k, Radius: 0.08, Keywords: []string{"w3", "w5"}}
				top, err := e.Query(q, WithAlgorithm(alg), WithCache(false))
				if err != nil {
					t.Fatal(err)
				}
				q.K++
				next, err := e.Query(q, WithAlgorithm(alg), WithCache(false))
				if err != nil {
					t.Fatal(err)
				}
				if len(top) != k || len(next) != k+1 || !resultsEqual(top, next[:k]) {
					t.Errorf("%s %v: top-%d is not a prefix of top-%d\ntop-%d: %+v\ntop-%d: %+v",
						st.name, alg, k, k+1, k, top, k+1, next)
				}
			}
		}
	}
}

// TestKthScoreMonotoneInRadius is a relation that needs no reference
// engine: every object's score — the best matching feature within r
// (range), the best distance-decayed one (influence), or the nearest
// feature within r (nearest) — never falls as r grows, so neither does
// the k-th score of the top-k (0 while fewer than k objects score). It
// covers every algorithm and storage, planned and unplanned; a planner
// that loses a block within r at some radius breaks it.
func TestKthScoreMonotoneInRadius(t *testing.T) {
	dataObjs, feats := tiedCorpus(41, 900)
	radii := []float64{0, 0.01, 0.03, 0.06, 0.1, 0.2, 0.5, 1.5}
	for _, st := range oracleStorages {
		e := sealedEngine(t, Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9}, dataObjs, feats)
		for _, planned := range []bool{false, true} {
			for _, c := range invarianceCases() {
				opts := []QueryOption{WithAlgorithm(c.alg), WithCache(false)}
				if planned {
					opts = append(opts, WithAutoPlan())
				}
				prev := 0.0
				for _, r := range radii {
					q := c.q
					q.Radius = r
					got, err := e.Query(q, opts...)
					if err != nil {
						t.Fatal(err)
					}
					kth := 0.0
					if len(got) >= q.K {
						kth = got[q.K-1].Score
					}
					if kth < prev {
						t.Errorf("%s planned=%v %v %v k=%d: k-th score falls from %v to %v as r grows to %v",
							st.name, planned, c.alg, q.Mode, q.K, prev, kth, r)
					}
					prev = kth
				}
				if prev == 0 {
					t.Errorf("%s planned=%v %v %v k=%d: no radius fills the top-k", st.name, planned, c.alg, c.q.Mode, c.q.K)
				}
			}
		}
	}
}
