package core

import (
	"testing"

	"spq/internal/data"
)

// The R-tree evaluator must agree with the naive oracle across modes and
// random workloads.
func TestCentralizedEvaluatorsMatchOracle(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		objs, q := randomWorkload(int64(500+trial), 500, 35, 6)
		for _, mode := range []ScoringMode{ScoreRange, ScoreInfluence, ScoreNearest} {
			q := q
			q.Mode = mode
			want := NaiveCentralized(objs, q)
			assertModeTopK(t, RTreeCentralized(objs, q), want, objs, q)
		}
	}
}

func TestCentralizedEvaluatorsPaperExample(t *testing.T) {
	objs, dict := paperExample()
	q := paperQuery(dict, 3)
	want := NaiveCentralized(objs, q)
	got := RTreeCentralized(objs, q)
	assertSameTopK(t, got, want, objs, q)
	if len(got) != 3 || got[0].ID != 1 || got[0].Score != 1 {
		t.Errorf("paper example via the R-tree: %+v", got)
	}
}

func TestCentralizedEmptyInputs(t *testing.T) {
	objs, dict := paperExample()
	q := paperQuery(dict, 2)
	// Only data objects: no features -> no results.
	var onlyData []data.Object
	for _, o := range objs {
		if o.Kind == data.DataObject {
			onlyData = append(onlyData, o)
		}
	}
	if got := RTreeCentralized(onlyData, q); len(got) != 0 {
		t.Errorf("no features: %+v", got)
	}
	// Only features: nothing to rank.
	var onlyFeats []data.Object
	for _, o := range objs {
		if o.Kind != data.DataObject {
			onlyFeats = append(onlyFeats, o)
		}
	}
	if got := RTreeCentralized(onlyFeats, q); len(got) != 0 {
		t.Errorf("no data objects: %+v", got)
	}
}
