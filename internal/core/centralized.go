package core

import (
	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/rtree"
)

// This file holds the R-tree driven centralized evaluator (the index the
// original spatial preference query work [12, 16, 17] builds on). It is
// exact and cross-validated against NaiveCentralized, with which it shares
// only the score accumulation; the two are the "centralized processing"
// comparison points the paper argues are infeasible at its scale (Section
// 7.1: "centralized processing of this query type is infeasible in
// practice").

// RTreeCentralized evaluates the query with an STR-packed R-tree over the
// relevant feature objects: for each data object only the features within
// the radius are visited, via MINDIST-pruned range search.
func RTreeCentralized(objs []data.Object, q Query) []ResultItem {
	var dataObjs []data.Object
	var feats []data.Object
	var items []rtree.Item
	for _, o := range objs {
		if o.Kind == data.DataObject {
			dataObjs = append(dataObjs, o)
			continue
		}
		if !o.Keywords.Intersects(q.Keywords) {
			continue // map-side prune, same as Algorithm 1 line 9
		}
		items = append(items, rtree.Item{Loc: o.Loc, ID: uint64(len(feats))})
		feats = append(feats, o)
	}
	tree := rtree.Build(items, rtree.DefaultFanout)
	topk := NewTopK(q.K)
	for _, p := range dataObjs {
		var acc scoreAccum
		tree.VisitWithin(p.Loc, q.Radius, func(it rtree.Item) bool {
			f := feats[it.ID]
			acc.add(q, q.Score(f), geo.Dist2(p.Loc, f.Loc))
			return true
		})
		topk.Update(ResultItem{ID: p.ID, Loc: p.Loc, Score: acc.score(q)})
	}
	return topk.Items()
}
