package core

import (
	"spq/internal/data"
	"spq/internal/geo"
)

// scoreAccum accumulates the score of one data object across all modes.
type scoreAccum struct {
	best float64 // range/influence: best contribution so far
	nnD2 float64 // nearest: squared distance of nearest relevant feature
	nnW  float64 // nearest: its textual score
	any  bool
}

func (a *scoreAccum) add(q Query, w, d2 float64) {
	switch q.Mode {
	case ScoreNearest:
		if w == 0 {
			return
		}
		if !a.any || d2 < a.nnD2 || (d2 == a.nnD2 && w > a.nnW) {
			a.nnD2, a.nnW, a.any = d2, w, true
		}
	default:
		if c := q.contribution(w, d2); c > a.best {
			a.best = c
			a.any = true
		}
	}
}

func (a *scoreAccum) score(q Query) float64 {
	if q.Mode == ScoreNearest {
		return a.nnW
	}
	return a.best
}

// NaiveCentralized answers the query by scoring every (data, feature) pair
// — the O(|O|·|F|) reference implementation of Definition 2 (and of the
// influence and nearest-neighbor scoring extensions). It exists to
// cross-validate every other algorithm; its output is the ground truth in
// the test suite.
func NaiveCentralized(objs []data.Object, q Query) []ResultItem {
	var dataObjs, feats []data.Object
	for _, o := range objs {
		if o.Kind == data.DataObject {
			dataObjs = append(dataObjs, o)
		} else {
			feats = append(feats, o)
		}
	}
	r2 := q.Radius * q.Radius
	topk := NewTopK(q.K)
	for _, p := range dataObjs {
		var acc scoreAccum
		for _, f := range feats {
			d2 := geo.Dist2(p.Loc, f.Loc)
			if d2 > r2 {
				continue
			}
			acc.add(q, q.Score(f), d2)
		}
		topk.Update(ResultItem{ID: p.ID, Loc: p.Loc, Score: acc.score(q)})
	}
	return topk.Items()
}
