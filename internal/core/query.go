// Package core implements the paper's primary contribution: parallel and
// distributed processing of spatial preference queries using keywords
// (SPQ). Given a data object dataset O, a feature dataset F and a query
// q(k, r, W), the query returns the k data objects p with the highest
// score τ(p) = max{ w(f,q) : f ∈ F, d(p,f) ≤ r }, where w(f,q) is the
// Jaccard similarity of q.W and f.W (Definitions 1 and 2).
//
// Three MapReduce algorithms are provided (Sections 4 and 5):
//
//   - PSPQ: grid partitioning with feature duplication, no early
//     termination (Algorithms 1–2),
//   - ESPQLen: feature objects sorted by increasing keyword-list length
//     with the Equation-1 bound for early termination (Algorithms 3–4),
//   - ESPQSco: feature objects sorted by decreasing Jaccard score, early
//     termination after k covered data objects (Algorithms 5–6),
//
// plus four centralized reference evaluators (naive, grid-indexed,
// R-tree, inverted-index) used for cross-validation, the influence and
// nearest-neighbor scoring extensions (scoring.go) and cost-based reducer
// load balancing for skewed data (balance.go).
//
// Convention for zero scores: a data object with no relevant feature
// within distance r has τ(p) = 0 and is never reported; consequently a
// query may return fewer than k results. This matches the paper's
// algorithms, where objects enter the top-k list only when a feature
// object improves their score.
package core

import (
	"fmt"
	"math"
	"sort"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/text"
)

// Query is a spatial preference query using keywords, q(k, r, W).
type Query struct {
	// K is the number of data objects to return.
	K int
	// Radius is the neighborhood distance threshold r.
	Radius float64
	// Keywords is the query keyword set q.W, interned in the same
	// dictionary as the feature dataset — or, when Size says so, the part
	// of q.W that dictionary holds.
	Keywords text.KeywordSet
	// Size is |q.W| when q.W holds words the dictionary does not: such a
	// word matches no feature, so it is left out of Keywords instead of
	// being interned, but it still counts in the union of every Jaccard
	// score. Zero means len(Keywords).
	Size int
	// Mode selects how in-range features contribute to scores. The zero
	// value is the paper's range mode (Definition 2); see ScoringMode for
	// the influence and nearest-neighbor extensions.
	Mode ScoringMode
}

// size returns |q.W|.
func (q Query) size() int {
	if q.Size > 0 {
		return q.Size
	}
	return len(q.Keywords)
}

// Validate reports structural problems with the query.
func (q Query) Validate() error {
	switch {
	case q.K <= 0:
		return fmt.Errorf("core: query k = %d, must be positive", q.K)
	case math.IsNaN(q.Radius) || math.IsInf(q.Radius, 0):
		// q.Radius < 0 is false for NaN, and a NaN or infinite radius
		// makes every distance comparison silently wrong — reject it
		// explicitly instead.
		return fmt.Errorf("core: query radius = %g, must be finite", q.Radius)
	case q.Radius < 0:
		return fmt.Errorf("core: query radius = %g, must be non-negative", q.Radius)
	case q.size() == 0:
		return fmt.Errorf("core: query has no keywords")
	case q.Size < 0 || q.size() < len(q.Keywords):
		return fmt.Errorf("core: query size %d is below its %d known keywords", q.Size, len(q.Keywords))
	case q.Mode != ScoreRange && q.Mode != ScoreInfluence && q.Mode != ScoreNearest:
		return fmt.Errorf("core: unknown scoring mode %d", int(q.Mode))
	}
	return nil
}

// Score returns w(f,q), the non-spatial score of a feature object for the
// query (Definition 1). Data objects score 0.
func (q Query) Score(f data.Object) float64 {
	if f.Kind != data.FeatureObject {
		return 0
	}
	return text.JaccardOfCounts(q.hits(f.Keywords), q.size(), len(f.Keywords))
}

// hits returns |q.W ∩ kws|. Short set pairs — the overwhelming case,
// queries being a handful of keywords — take the branch-free intersection
// kernel; both paths count the exact |∩| of two duplicate-free sets, so
// the value is identical.
func (q Query) hits(kws text.KeywordSet) int {
	if len(q.Keywords)*len(kws) <= denseIntersectCutoff {
		return intersectDense(q.Keywords, kws)
	}
	return q.Keywords.IntersectionSize(kws)
}

// UpperBound returns w̄(f,q), the Equation-1 best possible score for a
// feature with the given keyword-list length.
func (q Query) UpperBound(featureLen int) float64 {
	return text.UpperBound(featureLen, q.size())
}

// ResultItem is one ranked data object.
type ResultItem struct {
	ID    uint64
	Loc   geo.Point
	Score float64
}

// resultLess orders results by descending score, breaking ties by
// ascending id for determinism.
func resultLess(a, b ResultItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// SortResults sorts items into canonical result order (descending score,
// ascending id).
func SortResults(items []ResultItem) {
	sort.Slice(items, func(i, j int) bool { return resultLess(items[i], items[j]) })
}

// MergeTopK merges partial top-k lists, each in canonical result order,
// into the global top-k: the final centralized step of Section 4.2, over
// the one list each reduce task emits. It is a k-way merge on a heap of
// the lists' heads, so it reads k items plus one head per list, however
// long the lists are: with a large k they hold every scored object, and a
// sort of their concatenation costs more than the merge. An unsorted list
// yields a wrong result.
func MergeTopK(k int, lists ...[]ResultItem) []ResultItem {
	heads := make([][]ResultItem, 0, len(lists))
	for _, l := range lists {
		if len(l) > 0 {
			heads = append(heads, l)
		}
	}
	// heads is a heap with the best remaining head at the root.
	down := func(i int) {
		for {
			best, l, r := i, 2*i+1, 2*i+2
			if l < len(heads) && resultLess(heads[l][0], heads[best][0]) {
				best = l
			}
			if r < len(heads) && resultLess(heads[r][0], heads[best][0]) {
				best = r
			}
			if best == i {
				return
			}
			heads[i], heads[best] = heads[best], heads[i]
			i = best
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	var out []ResultItem
	for len(out) < k && len(heads) > 0 {
		out = append(out, heads[0][0])
		if rest := heads[0][1:]; len(rest) > 0 {
			heads[0] = rest
		} else {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}

// TopK maintains the paper's list Lk: the k data objects with the highest
// scores seen so far, with τ (Threshold) the k-th best score. Scores only
// improve, mirroring score(p) ← max{score(p), w(x,q)} of Algorithm 2. A
// reduce task keeps one list across all its groups (cells), so every group
// starts from the τ the task's earlier groups reached.
//
// Selection is canonical under ties: among objects tied at τ, the lowest
// ids win, so the final list depends only on the offered (id, score)
// pairs — never on their order. Order-independence is what lets a query
// over planner-pruned storage (different files, splits and shuffle order),
// or over another cell→task assignment, return identical results.
//
// No offer costs O(len): an id map finds a tracked object, and once the
// list is full its items form a binary heap whose root is the eviction
// victim (lowest score, highest id on ties).
//
// The zero value is not usable; call NewTopK.
type TopK struct {
	k     int
	items []ResultItem   // ids unique; len <= k; a heap, victim first, once full
	pos   map[uint64]int // id → index in items
	tau   float64
}

// topKPrealloc caps the items NewTopK preallocates. k comes off the wire,
// so a huge k must grow the list as objects arrive, not reserve k slots up
// front; no data set yields more results than it holds objects.
const topKPrealloc = 64

// NewTopK returns an empty list Lk that keeps up to k items.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic(fmt.Sprintf("core: TopK with k = %d", k))
	}
	n := min(k, topKPrealloc)
	return &TopK{k: k, items: make([]ResultItem, 0, n), pos: make(map[uint64]int, n)}
}

// Threshold returns τ, the score of the k-th best data object so far, or 0
// while fewer than k objects are tracked.
func (t *TopK) Threshold() float64 { return t.tau }

// Len returns the number of tracked objects (≤ k).
func (t *TopK) Len() int { return len(t.items) }

// Update offers an improved score for a data object. Following the paper's
// convention only positive scores are considered. It returns whether the
// list changed.
func (t *TopK) Update(item ResultItem) bool {
	if item.Score <= 0 {
		return false
	}
	full := len(t.items) == t.k
	if full && item.Score < t.tau {
		// Fast reject, O(1): every tracked score is >= τ, so a below-τ
		// offer can neither displace an item nor improve a tracked one.
		return false
	}
	if i, ok := t.pos[item.ID]; ok {
		if item.Score <= t.items[i].Score {
			return false
		}
		t.items[i] = item
		if full {
			t.down(i)
			t.tau = t.items[0].Score
		}
		return true
	}
	if !full {
		t.pos[item.ID] = len(t.items)
		t.items = append(t.items, item)
		if len(t.items) == t.k {
			for i := t.k/2 - 1; i >= 0; i-- {
				t.down(i)
			}
			t.tau = t.items[0].Score
		}
		return true
	}
	// Full: a score above τ displaces the victim; a score equal to τ
	// displaces it only when the canonical tie-break (lowest id wins) says
	// so, i.e. when the victim is a tie with a higher id.
	if item.Score == t.tau && t.items[0].ID < item.ID {
		return false
	}
	delete(t.pos, t.items[0].ID)
	t.items[0] = item
	t.down(0)
	t.tau = t.items[0].Score
	return true
}

// down restores the heap order below item i, whose score just rose: the
// worst item (lowest score, highest id on ties) sits at the root. It also
// records the new slot of every item it moves.
func (t *TopK) down(i int) {
	items, x := t.items, t.items[i]
	for {
		c := 2*i + 1
		if c >= len(items) {
			break
		}
		if r := c + 1; r < len(items) && resultLess(items[c], items[r]) {
			c = r
		}
		if !resultLess(x, items[c]) {
			break
		}
		items[i] = items[c]
		t.pos[items[i].ID] = i
		i = c
	}
	items[i] = x
	t.pos[x.ID] = i
}

// Items returns the tracked objects in canonical result order.
func (t *TopK) Items() []ResultItem {
	out := make([]ResultItem, len(t.items))
	copy(out, t.items)
	SortResults(out)
	return out
}
