package core

import (
	"fmt"
	"math"

	"spq/internal/data"
)

// ScoringMode selects how a feature object within the query radius
// contributes to a data object's score. The paper evaluates the range
// mode; the influence and nearest-neighbor modes come from the spatial
// preference query literature it builds on (Yiu et al. [16, 17]) and are
// provided as extensions, restricted — like everything else here — to
// features within distance r so that the Lemma-1 grid duplication remains
// correct.
type ScoringMode int

// The scoring modes.
const (
	// ScoreRange is the paper's Definition 2: τ(p) is the maximum w(f,q)
	// of any feature within distance r.
	ScoreRange ScoringMode = iota
	// ScoreInfluence discounts the textual score by distance:
	// τ(p) = max w(f,q)·2^(−d(p,f)/r) over features within distance r.
	// A perfect match next door beats a perfect match at the rim (which
	// retains half its weight).
	ScoreInfluence
	// ScoreNearest scores p by the textual relevance of the *nearest*
	// relevant feature within distance r, regardless of whether farther
	// features match better. Not monotone in w, so early termination is
	// impossible: only PSPQ (and the centralized baselines) support it.
	ScoreNearest
)

// String implements fmt.Stringer.
func (m ScoringMode) String() string {
	switch m {
	case ScoreRange:
		return "range"
	case ScoreInfluence:
		return "influence"
	case ScoreNearest:
		return "nearest"
	default:
		return fmt.Sprintf("ScoringMode(%d)", int(m))
	}
}

// contribution returns the score contribution of a feature with textual
// score w at squared distance d2 from the data object, for range and
// influence modes. The caller has already verified d2 <= r².
func (q Query) contribution(w, d2 float64) float64 {
	if q.Mode == ScoreInfluence && q.Radius > 0 {
		return w * math.Exp2(-math.Sqrt(d2)/q.Radius)
	}
	return w
}

// SupportsMode reports whether the algorithm can process the mode.
// ScoreNearest is not monotone in the textual score: a nearer feature
// with a *lower* score replaces the current one, so neither ordering of
// Section 5 admits a correct termination bound.
func (a Algorithm) SupportsMode(m ScoringMode) bool {
	return m != ScoreNearest || a == PSPQ
}

// nnState tracks the nearest relevant feature seen so far for one data
// object (ScoreNearest reduce state).
type nnState struct {
	d2 float64
	w  float64
}

// reduceNearest implements the ScoreNearest variant of the pSPQ Reduce:
// every surviving feature must be examined, and each data object keeps
// the textual score of its nearest relevant feature (ties at equal
// distance resolved toward the higher score, so results are independent
// of arrival order).
func reduceNearest(q Query, view *DataView) reduceFunc {
	r2 := q.Radius * q.Radius
	return func(ctx *taskCtx, values *valueIter, _ func([]ResultItem)) error {
		sc := getScratch(view, values.GroupKey().Cell)
		defer putScratch(sc)
		// Flushed once per group; per-feature Counter calls hash the name.
		var examined, computed int64
		for {
			x, ok := values.Next()
			if !ok {
				break
			}
			if x.Kind == data.DataObject {
				if err := sc.add(x); err != nil {
					return err
				}
				continue
			}
			sc.features = true
			w := q.score(x)
			examined++
			if w == 0 {
				continue
			}
			if !sc.sealed {
				sc.best = resize(sc.best, sc.seal())
				for i := range sc.best {
					sc.best[i] = nnState{d2: math.Inf(1)}
				}
			}
			for _, g := range sc.parts {
				computed += g.kernelHits(x.Loc, q.Radius, r2, &sc.hits, &sc.hitD2)
				for n, i := range sc.hits {
					d2 := sc.hitD2[n]
					if cur := &sc.best[g.base+i]; d2 < cur.d2 || (d2 == cur.d2 && w > cur.w) {
						*cur = nnState{d2: d2, w: w}
					}
				}
			}
		}
		ctx.Counter(CounterFeaturesExamined, examined)
		ctx.Counter(CounterScoreComputations, computed)
		topk := taskTopK(ctx, q.K)
		if !sc.sealed {
			// No feature scored: no object has a relevant one within r.
			return nil
		}
		// TopK's canonical tie-breaking makes the outcome independent of
		// offer order.
		for _, g := range sc.parts {
			for i := range g.ids {
				if best := sc.best[int(g.base)+i]; best.w != 0 { // else no relevant feature within r
					topk.Update(g.item(int32(i), best.w))
				}
			}
		}
		return nil
	}
}
