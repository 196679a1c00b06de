package main

import (
	"math/rand"
	"sort"

	"spq"
	"spq/internal/data"
)

// Every query of every workload has the same shape (ISSUE 13): top-10
// within radius 0.02 of 3 keywords. Workloads differ in which words the
// keywords are drawn from and in what stands behind the query.
const (
	queryK        = 10
	queryRadius   = 0.02
	queryKeywords = 3
)

// Dataset sizes (total objects; half data, half features) and the fixed
// operation counts of one pass at the nominal run length. A pass is fixed
// in operation count, never in time; --seconds scales the counts, and the
// nominal counts below are sized for about 2.6 s per pass on 2 cores.
const (
	nominalSeconds = 13

	scanColdObjects  = 50000  // CL: decodes ~14 MB per query against a 256 KiB segment cache
	scanColdQueries  = 120    // per pass
	queryHotObjects  = 200000 // FL: the planner prunes most blocks, the rest fit the cache
	queryHotQueries  = 150
	dist2wObjects    = 20000 // CL: the whole relevant set crosses RPC on every query
	dist2wQueries    = 56
	serveArrivals    = 110 // open-loop arrivals per pass
	serveBurstRounds = 2   // then the list this many times closed loop
	serveRate        = 55  // arrivals per second
	serveHotSet      = 16  // distinct queries behind the 70% cache-hit share
	serveHotPercent  = 70
	ingestObjects    = 120000 // FL: rebuilt before every pass, so smaller than query_hot's
	ingestOps        = 200    // every ingestEvery-th op is an append, the rest are queries
	ingestEvery      = 10
	ingestBatch      = 250 // AddData(ingestBatch) then AddFeature(ingestBatch) per append op

	scanTopWords = 64   // scan_cold/dist_2w keywords: the most frequent words, so nothing prunes
	hotRankLo    = 200  // query_hot keywords: frequency ranks [hotRankLo, hotRankHi),
	hotRankHi    = 2000 // rare enough that keyword blooms prune, common enough to match
	appendIDBase = 10_000_000
)

// inputs is one generated dataset in the two shapes the benchmark needs:
// the public-API shape handed to the program, and the interned shape the
// centralized oracle and the shadow layer calls read. The program never
// sees ds; it receives objs and feats through AddData/AddFeature only.
type inputs struct {
	ds     *data.Dataset
	objs   []spq.DataObject
	feats  []spq.Feature
	ranked []string // feature words, most frequent first
}

// generate materializes a CL ("clustered") or FL ("flickr") dataset of n
// objects. Only the record seed varies with --seed: cluster and hotspot
// centers stay where the presets put them, so runs with different seeds
// measure the same spatial shape.
func generate(kind string, n int, seed int64, idBase uint64) *inputs {
	spec := data.ClusteredSpec(n)
	if kind == "flickr" {
		spec = data.FlickrSpec(n)
	}
	spec.Seed = seed
	ds := data.Generate(spec)
	in := &inputs{ds: ds}
	in.objs = make([]spq.DataObject, len(ds.Data))
	for i := range ds.Data {
		ds.Data[i].ID += idBase
		o := ds.Data[i]
		in.objs[i] = spq.DataObject{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y}
	}
	in.feats = make([]spq.Feature, len(ds.Features))
	freq := make(map[uint32]int)
	for i := range ds.Features {
		ds.Features[i].ID += idBase
		f := ds.Features[i]
		in.feats[i] = spq.Feature{ID: f.ID, X: f.Loc.X, Y: f.Loc.Y, Keywords: ds.Dict.Words(f.Keywords)}
		for _, kw := range f.Keywords {
			freq[kw]++
		}
	}
	ids := make([]uint32, 0, len(freq))
	for id := range freq {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if freq[ids[i]] != freq[ids[j]] {
			return freq[ids[i]] > freq[ids[j]]
		}
		return ids[i] < ids[j]
	})
	in.ranked = ds.Dict.Words(ids)
	return in
}

// queries draws n queries whose keywords are distinct words of
// ranked[lo:hi]. The bounds are clamped so that reduced-size datasets (the
// smoke test) still yield valid queries.
func (in *inputs) queries(r *rand.Rand, n, lo, hi int) []spq.Query {
	if hi > len(in.ranked) {
		hi = len(in.ranked)
	}
	if lo > hi-queryKeywords {
		lo = max(0, hi-queryKeywords)
	}
	out := make([]spq.Query, n)
	for i := range out {
		kws := make([]string, 0, queryKeywords)
		for _, j := range r.Perm(hi - lo)[:queryKeywords] {
			kws = append(kws, in.ranked[lo+j])
		}
		out[i] = spq.Query{K: queryK, Radius: queryRadius, Keywords: kws}
	}
	return out
}

// scanQueries is the scan_cold/dist_2w recipe and hotQueries the
// query_hot/serve_mixed/ingest_mixed recipe.
func (in *inputs) scanQueries(r *rand.Rand, n int) []spq.Query {
	return in.queries(r, n, 0, scanTopWords)
}

func (in *inputs) hotQueries(r *rand.Rand, n int) []spq.Query {
	return in.queries(r, n, hotRankLo, hotRankHi)
}
