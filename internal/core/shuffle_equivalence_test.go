package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// synthCorpus builds a clustered corpus with enough objects per cell that
// the reduce-side bucket index engages (groups larger than objGridMinObjs).
func synthCorpus(n int, seed int64) ([]data.Object, *text.Dict) {
	rng := rand.New(rand.NewSource(seed))
	dict := text.NewDict()
	centers := [][2]float64{{0.2, 0.3}, {0.7, 0.6}, {0.5, 0.85}}
	var objs []data.Object
	for i := 0; i < n; i++ {
		c := centers[i%len(centers)]
		loc := geo.Point{
			X: math.Min(0.999, math.Max(0.001, c[0]+rng.NormFloat64()*0.08)),
			Y: math.Min(0.999, math.Max(0.001, c[1]+rng.NormFloat64()*0.08)),
		}
		if i%2 == 0 {
			objs = append(objs, data.Object{Kind: data.DataObject, ID: uint64(i + 1), Loc: loc})
		} else {
			objs = append(objs, data.Object{
				Kind: data.FeatureObject, ID: uint64(i + 1), Loc: loc,
				Keywords: dict.InternAll([]string{
					fmt.Sprintf("kw%d", rng.Intn(40)),
					fmt.Sprintf("kw%d", rng.Intn(40)),
				}),
			})
		}
	}
	return objs, dict
}

// TestReportResultsInvariantUnderShuffleConfig is the sorted-chunk publish
// property test: Report.Results must be byte-identical across MapSlots in
// {1, 4} for all three algorithms, because the shuffle configuration only
// changes how the sorted stream is chunked and merged, never which records
// a reduce group sees or the canonical top-k it selects.
func TestReportResultsInvariantUnderShuffleConfig(t *testing.T) {
	objs, dict := synthCorpus(4000, 5)
	queries := []Query{
		{K: 5, Radius: 0.05, Keywords: dict.LookupAll([]string{"kw3", "kw17"})},
		{K: 10, Radius: 0.12, Keywords: dict.LookupAll([]string{"kw7"})},
		{K: 3, Radius: 0.02, Keywords: dict.LookupAll([]string{"kw21", "kw5", "kw9"})},
	}
	for qi, q := range queries {
		for _, alg := range Algorithms() {
			var want []ResultItem
			var wantCfg string
			for _, mapSlots := range []int{1, 4} {
				cfg := fmt.Sprintf("maps=%d", mapSlots)
				rep, err := Run(alg, mapreduce.NewMemorySource(objs, 5), q, Options{
					Cluster: mapreduce.NewCluster(nil, mapSlots, 3),
					Bounds:  unitBounds,
					GridN:   6,
				})
				if err != nil {
					t.Fatalf("q%d %v %s: %v", qi, alg, cfg, err)
				}
				if want == nil {
					want, wantCfg = rep.Results, cfg
					continue
				}
				if len(rep.Results) != len(want) {
					t.Fatalf("q%d %v: %s returned %d results, %s returned %d",
						qi, alg, cfg, len(rep.Results), wantCfg, len(want))
				}
				for i := range want {
					if rep.Results[i] != want[i] {
						t.Errorf("q%d %v: results diverge at %d between %s and %s:\n %+v\n %+v",
							qi, alg, i, wantCfg, cfg, want[i], rep.Results[i])
						break
					}
				}
			}
		}
	}
}

// TestObjGridMatchesLinearScan cross-checks a sealed cell's bucket index
// against the plain scan it replaces: for random probe points and radii,
// the objects of the spans restricted to exact distance must be exactly
// the in-range objects of the input, and sealing must permute the input,
// keeping each object's id with its coordinates.
func TestObjGridMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := objGridMinObjs + rng.Intn(500)
		var in columns
		for i := 0; i < n; i++ {
			y := rng.Float64()
			if trial%5 == 4 {
				y = 0.5 // degenerate layout: one axis collapsed
			}
			in.add(uint64(i), rng.Float64(), y)
		}
		var c viewCell
		c.seal(in)
		if len(c.index.start) == 0 {
			t.Fatalf("trial %d: index not built for %d objects", trial, n)
		}
		seen := make([]bool, n)
		for j, id := range c.ids {
			if seen[id] || c.xs[j] != in.xs[id] || c.ys[j] != in.ys[id] {
				t.Fatalf("trial %d: sealed slot %d holds object %d at (%v, %v), not a permutation of the input", trial, j, id, c.xs[j], c.ys[j])
			}
			seen[id] = true
		}
		for probe := 0; probe < 50; probe++ {
			p := geo.Point{X: rng.Float64()*1.4 - 0.2, Y: rng.Float64()*1.4 - 0.2}
			r := rng.Float64() * 0.3
			r2 := r * r
			want := make(map[uint64]bool)
			for i := range in.ids {
				if geo.Dist2(geo.Point{X: in.xs[i], Y: in.ys[i]}, p) <= r2 {
					want[in.ids[i]] = true
				}
			}
			got := make(map[uint64]bool)
			c.index.spans(p, r, func(lo, hi int32) {
				for j := lo; j < hi; j++ {
					if geo.Dist2(geo.Point{X: c.xs[j], Y: c.ys[j]}, p) <= r2 {
						got[c.ids[j]] = true
					}
				}
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d probe %d: index found %d in-range objects, scan found %d",
					trial, probe, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("trial %d probe %d: object %d missed by index", trial, probe, id)
				}
			}
		}
	}
}

// buildScanTask lays out one reduce task's sorted input in pSPQ order:
// cells groups, each nData data objects (Order 0) followed by nFeat
// features (Order 1), as the Map phase emits them for q.
func buildScanTask(cells, nData, nFeat int, dict *text.Dict, q Query, seed int64) []mapreduce.Pair[CellKey, Rec] {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]mapreduce.Pair[CellKey, Rec], 0, cells*(nData+nFeat))
	id := uint64(0)
	for c := 0; c < cells; c++ {
		cell := grid.CellID(c)
		for i := 0; i < nData; i++ {
			id++
			pairs = append(pairs, mapreduce.Pair[CellKey, Rec]{
				Key: CellKey{Cell: cell, Order: 0},
				Value: q.newRec(data.Object{Kind: data.DataObject, ID: id,
					Loc: geo.Point{X: rng.Float64(), Y: rng.Float64()}}),
			})
		}
		for i := 0; i < nFeat; i++ {
			id++
			pairs = append(pairs, mapreduce.Pair[CellKey, Rec]{
				Key: CellKey{Cell: cell, Order: 1},
				Value: q.newRec(data.Object{Kind: data.FeatureObject, ID: id,
					Loc:      geo.Point{X: rng.Float64(), Y: rng.Float64()},
					Keywords: dict.InternAll([]string{fmt.Sprintf("kw%d", rng.Intn(8))}),
				}),
			})
		}
	}
	return pairs
}

// BenchmarkReduceScan measures one Algorithm-2 reduce task over four
// populous cells — the loop the bucket index accelerates — through to the
// one list its Cleanup emits. The radius keeps each feature's
// neighborhood at a few percent of the cell, the regime of the paper's
// default queries.
func BenchmarkReduceScan(b *testing.B) {
	dict := text.NewDict()
	q := Query{K: 10, Radius: 0.05, Keywords: dict.InternAll([]string{"kw1", "kw3", "kw5"})}
	for _, size := range []struct{ nData, nFeat int }{
		{1000, 200},
		{8000, 400},
	} {
		const cells = 4
		pairs := buildScanTask(cells, size.nData, size.nFeat, dict, q, 3)
		b.Run(fmt.Sprintf("cells=%d/objs=%d/feats=%d", cells, size.nData, size.nFeat), func(b *testing.B) {
			job := &mapreduce.Job[data.Object, CellKey, Rec, []ResultItem]{
				GroupEqual: CellKeyGroup,
				Reduce:     reduceScan(q, scanOpts{}, nil),
				Cleanup:    emitTaskTopK,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := mapreduce.ReduceSorted(job, pairs)
				if err != nil || len(out) != 1 || len(out[0]) != q.K {
					b.Fatalf("reduce task emitted %d lists, err %v", len(out), err)
				}
			}
		})
	}
}
