package core

import (
	"math"
	"testing"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// trueModeScore recomputes the mode-aware score of a data object by
// definition, independently of every production code path.
func trueModeScore(objs []data.Object, q Query, id uint64) float64 {
	var p data.Object
	found := false
	for _, o := range objs {
		if o.Kind == data.DataObject && o.ID == id {
			p, found = o, true
			break
		}
	}
	if !found {
		return -1
	}
	r2 := q.Radius * q.Radius
	best := 0.0
	nnD2 := math.Inf(1)
	nnW := 0.0
	for _, f := range objs {
		if f.Kind != data.FeatureObject {
			continue
		}
		d2 := geo.Dist2(p.Loc, f.Loc)
		if d2 > r2 {
			continue
		}
		w := q.Score(f)
		switch q.Mode {
		case ScoreNearest:
			if w > 0 && (d2 < nnD2 || (d2 == nnD2 && w > nnW)) {
				nnD2, nnW = d2, w
			}
		case ScoreInfluence:
			c := w * math.Exp2(-math.Sqrt(d2)/q.Radius)
			if c > best {
				best = c
			}
		default:
			if w > best {
				best = w
			}
		}
	}
	if q.Mode == ScoreNearest {
		return nnW
	}
	return best
}

func assertModeTopK(t *testing.T, got []ResultItem, want []ResultItem, objs []data.Object, q Query) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("mode %v: got %d results, want %d\n got %+v\nwant %+v", q.Mode, len(got), len(want), got, want)
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("mode %v result %d: score %v, want %v\n got %+v\nwant %+v",
				q.Mode, i, got[i].Score, want[i].Score, got, want)
		}
		if ts := trueModeScore(objs, q, got[i].ID); math.Abs(ts-got[i].Score) > 1e-12 {
			t.Fatalf("mode %v: id %d reported %v but true score is %v", q.Mode, got[i].ID, got[i].Score, ts)
		}
	}
}

func TestScoringModeStringer(t *testing.T) {
	if ScoreRange.String() != "range" || ScoreInfluence.String() != "influence" || ScoreNearest.String() != "nearest" {
		t.Error("mode names")
	}
	if ScoringMode(9).String() == "" {
		t.Error("unknown mode name empty")
	}
}

func TestContribution(t *testing.T) {
	q := Query{K: 1, Radius: 2, Keywords: text.NewKeywordSet(1)}
	if got := q.contribution(0.8, 1); got != 0.8 {
		t.Errorf("range contribution = %v, want w", got)
	}
	q.Mode = ScoreInfluence
	// At distance 0 the full score; at distance r exactly half.
	if got := q.contribution(0.8, 0); got != 0.8 {
		t.Errorf("influence at d=0: %v", got)
	}
	if got := q.contribution(0.8, 4); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("influence at d=r: %v, want 0.4", got)
	}
}

func TestSupportsMode(t *testing.T) {
	for _, alg := range Algorithms() {
		if !alg.SupportsMode(ScoreRange) || !alg.SupportsMode(ScoreInfluence) {
			t.Errorf("%v must support range and influence", alg)
		}
	}
	if !PSPQ.SupportsMode(ScoreNearest) {
		t.Error("PSPQ must support nearest")
	}
	if ESPQLen.SupportsMode(ScoreNearest) || ESPQSco.SupportsMode(ScoreNearest) {
		t.Error("early-termination algorithms must reject nearest")
	}
}

// Influence mode: a nearer feature with a lower textual score can win.
func TestInfluenceModeDistanceMatters(t *testing.T) {
	dict := text.NewDict()
	objs := []data.Object{
		{Kind: data.DataObject, ID: 1, Loc: geo.Point{X: 0, Y: 0}},
		// Perfect textual match at distance ~r: contribution 1*2^-0.99.
		{Kind: data.FeatureObject, ID: 10, Loc: geo.Point{X: 0.99, Y: 0},
			Keywords: dict.InternAll([]string{"a"})},
		// Half match right next to p: contribution 0.5*2^-0.01 ≈ 0.497.
		{Kind: data.FeatureObject, ID: 11, Loc: geo.Point{X: 0.01, Y: 0},
			Keywords: dict.InternAll([]string{"a", "b"})},
	}
	q := Query{K: 1, Radius: 1, Keywords: dict.LookupAll([]string{"a"})}

	// Range mode: the perfect match wins with score 1.
	if got := NaiveCentralized(objs, q); got[0].Score != 1 {
		t.Fatalf("range score = %v", got[0].Score)
	}
	// Influence mode: the far perfect match decays to ~0.504 and still
	// wins, but barely.
	q.Mode = ScoreInfluence
	got := NaiveCentralized(objs, q)
	want := math.Exp2(-0.99)
	if math.Abs(got[0].Score-want) > 1e-12 {
		t.Fatalf("influence score = %v, want %v", got[0].Score, want)
	}
}

// Nearest mode: the nearest relevant feature defines the score even when a
// farther feature matches better.
func TestNearestModePicksNearest(t *testing.T) {
	dict := text.NewDict()
	objs := []data.Object{
		{Kind: data.DataObject, ID: 1, Loc: geo.Point{X: 0, Y: 0}},
		{Kind: data.FeatureObject, ID: 10, Loc: geo.Point{X: 0.9, Y: 0},
			Keywords: dict.InternAll([]string{"a"})}, // perfect, far
		{Kind: data.FeatureObject, ID: 11, Loc: geo.Point{X: 0.1, Y: 0},
			Keywords: dict.InternAll([]string{"a", "b", "c", "d"})}, // weak, near
	}
	q := Query{K: 1, Radius: 1, Mode: ScoreNearest, Keywords: dict.LookupAll([]string{"a"})}
	got := NaiveCentralized(objs, q)
	if len(got) != 1 || math.Abs(got[0].Score-0.25) > 1e-12 {
		t.Fatalf("nearest score = %+v, want 0.25 (the near weak feature)", got)
	}
}

// All supported (algorithm, mode) combinations must agree with the naive
// oracle on random workloads.
func TestModesMatchOracleRandomized(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		objs, q := randomWorkload(int64(200+trial), 400, 30, 6)
		for _, mode := range []ScoringMode{ScoreRange, ScoreInfluence, ScoreNearest} {
			q := q
			q.Mode = mode
			want := NaiveCentralized(objs, q)
			gridN := 2 + trial%5
			assertModeTopK(t, RTreeCentralized(objs, q), want, objs, q)
			for _, alg := range Algorithms() {
				if !alg.SupportsMode(mode) {
					continue
				}
				rep, err := Run(alg, mapreduce.NewMemorySource(objs, 1+trial%4), q, Options{
					Bounds: unitBounds, GridN: gridN,
					Cluster: mapreduce.NewCluster(nil, 2, 2),
				})
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, alg, mode, err)
				}
				assertModeTopK(t, rep.Results, want, objs, q)
			}
		}
	}
}

func TestNearestModeRejectedByEarlyTermination(t *testing.T) {
	objs, q := randomWorkload(5, 100, 10, 4)
	q.Mode = ScoreNearest
	for _, alg := range []Algorithm{ESPQLen, ESPQSco} {
		if _, err := Run(alg, mapreduce.NewMemorySource(objs, 2), q, Options{
			Bounds: unitBounds, GridN: 3,
		}); err == nil {
			t.Errorf("%v accepted nearest mode", alg)
		}
	}
}

func TestInvalidModeRejected(t *testing.T) {
	q := Query{K: 1, Radius: 1, Keywords: text.NewKeywordSet(1), Mode: ScoringMode(42)}
	if err := q.Validate(); err == nil {
		t.Error("invalid mode validated")
	}
}

// Influence-mode early termination must still fire under eSPQsco ordering.
func TestInfluenceEarlyTermination(t *testing.T) {
	objs, q := randomWorkload(7, 2000, 10, 4)
	q.K = 3
	q.Radius = 0.15
	q.Mode = ScoreInfluence
	repSco, err := Run(ESPQSco, mapreduce.NewMemorySource(objs, 4), q, Options{
		Bounds: unitBounds, GridN: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	repP, err := Run(PSPQ, mapreduce.NewMemorySource(objs, 4), q, Options{
		Bounds: unitBounds, GridN: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if repSco.Counters[CounterFeaturesExamined] >= repP.Counters[CounterFeaturesExamined] {
		t.Errorf("influence eSPQsco examined %d >= pSPQ %d",
			repSco.Counters[CounterFeaturesExamined], repP.Counters[CounterFeaturesExamined])
	}
}
