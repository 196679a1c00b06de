package spq

import (
	"fmt"
	"sort"

	"spq/internal/data"
)

// LoadSynthetic populates the engine with one of the paper's four
// experimental dataset families, scaled to n total objects (half data,
// half feature objects, as in Section 7.1):
//
//	"uniform"   — UN: uniform locations, 10–100 keywords per feature from
//	              a 1,000-word vocabulary
//	"clustered" — CL: 16 random Gaussian clusters, keywords as UN
//	"flickr"    — FL surrogate: hotspot-skewed locations, mean 7.9
//	              keywords, 34,716-word Zipfian vocabulary
//	"twitter"   — TW surrogate: hotspot-skewed locations, mean 9.8
//	              keywords, 88,706-word Zipfian vocabulary
//
// The real Flickr/Twitter dumps used by the paper are not redistributable;
// the surrogates reproduce their published statistics (internal/data/gen.go).
func (e *Engine) LoadSynthetic(dataset string, n int) error {
	var spec data.Spec
	switch dataset {
	case "uniform":
		spec = data.UniformSpec(n)
	case "clustered":
		spec = data.ClusteredSpec(n)
	case "flickr":
		spec = data.FlickrSpec(n)
	case "twitter":
		spec = data.TwitterSpec(n)
	default:
		return fmt.Errorf("spq: unknown synthetic dataset %q (want uniform, clustered, flickr or twitter)", dataset)
	}
	ds := data.Generate(spec)
	objs := ds.Objects()
	e.mu.Lock()
	defer e.mu.Unlock()
	// Generated objects pass the same load-time validation as user input,
	// so loading the same synthetic family twice into one engine fails on
	// the duplicate ids instead of silently corrupting top-k results.
	_, err := e.loadLocked(objs, func(i int) []string { return ds.Dict.Words(objs[i].Keywords) })
	return err
}

// FrequentKeywords returns up to n of the most frequently used feature
// keywords, most frequent first. Useful for building queries guaranteed to
// match data, especially on the Zipfian synthetic datasets.
func (e *Engine) FrequentKeywords(n int) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	freq := make(map[uint32]int)
	for _, o := range e.allObjectsLocked() {
		if o.Kind != data.FeatureObject {
			continue
		}
		for _, kw := range o.Keywords {
			freq[kw]++
		}
	}
	type wc struct {
		id uint32
		n  int
	}
	all := make([]wc, 0, len(freq))
	for id, c := range freq {
		all = append(all, wc{id, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].id < all[j].id
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = e.dict.Word(all[i].id)
	}
	return out
}
