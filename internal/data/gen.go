package data

import (
	"fmt"
	"math"
	"math/rand"

	"spq/internal/geo"
	"spq/internal/text"
)

// SpatialDist samples object locations. Implementations are deterministic
// given the *rand.Rand they are handed.
type SpatialDist interface {
	Sample(r *rand.Rand) geo.Point
	// Bounds returns the rectangle all samples fall into.
	Bounds() geo.Rect
}

// UniformDist samples uniformly over a rectangle — the paper's UN dataset.
type UniformDist struct {
	Rect geo.Rect
}

// Unit returns the uniform distribution over the unit square.
func Unit() UniformDist {
	return UniformDist{Rect: geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}}
}

// Sample implements SpatialDist.
func (u UniformDist) Sample(r *rand.Rand) geo.Point {
	return geo.Point{
		X: u.Rect.MinX + r.Float64()*u.Rect.Width(),
		Y: u.Rect.MinY + r.Float64()*u.Rect.Height(),
	}
}

// Bounds implements SpatialDist.
func (u UniformDist) Bounds() geo.Rect { return u.Rect }

// ClusterDist samples from a mixture of Gaussian clusters clipped to a
// bounding rectangle — the paper's CL dataset ("16 clusters whose position
// in space is selected at random").
type ClusterDist struct {
	Rect    geo.Rect
	Centers []geo.Point
	Weights []float64 // optional; uniform mixture when nil
	Sigma   float64
	// Background is the fraction of points drawn uniformly instead of from
	// a cluster, in [0,1].
	Background float64
}

// NewClusterDist places n cluster centers uniformly at random (using seed)
// in the unit square with the given standard deviation.
func NewClusterDist(n int, sigma float64, seed int64) ClusterDist {
	r := rand.New(rand.NewSource(seed))
	d := ClusterDist{
		Rect:  geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		Sigma: sigma,
	}
	for i := 0; i < n; i++ {
		d.Centers = append(d.Centers, geo.Point{X: r.Float64(), Y: r.Float64()})
	}
	return d
}

// Sample implements SpatialDist.
func (c ClusterDist) Sample(r *rand.Rand) geo.Point {
	if c.Background > 0 && r.Float64() < c.Background {
		return UniformDist{Rect: c.Rect}.Sample(r)
	}
	var center geo.Point
	if len(c.Weights) == len(c.Centers) && len(c.Weights) > 0 {
		u := r.Float64() * sum(c.Weights)
		acc := 0.0
		center = c.Centers[len(c.Centers)-1]
		for i, w := range c.Weights {
			acc += w
			if u <= acc {
				center = c.Centers[i]
				break
			}
		}
	} else {
		center = c.Centers[r.Intn(len(c.Centers))]
	}
	p := geo.Point{
		X: center.X + r.NormFloat64()*c.Sigma,
		Y: center.Y + r.NormFloat64()*c.Sigma,
	}
	return geo.Clamp(p, c.Rect)
}

// Bounds implements SpatialDist.
func (c ClusterDist) Bounds() geo.Rect { return c.Rect }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// HotspotDist models the spatial skew of geotagged social media (the
// paper's Flickr and Twitter datasets, Figure 4): many hotspots of very
// different intensity — Zipf-weighted — over a uniform background.
func HotspotDist(hotspots int, seed int64) ClusterDist {
	r := rand.New(rand.NewSource(seed))
	d := ClusterDist{
		Rect:       geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1},
		Sigma:      0.02,
		Background: 0.15,
	}
	for i := 0; i < hotspots; i++ {
		d.Centers = append(d.Centers, geo.Point{X: r.Float64(), Y: r.Float64()})
		d.Weights = append(d.Weights, 1/math.Pow(float64(i+1), 1.1))
	}
	return d
}

// Spec describes a synthetic dataset. Construct via the preset helpers
// (UniformSpec, ClusteredSpec, FlickrSpec, TwitterSpec) or directly.
type Spec struct {
	// Name labels the dataset in files and reports.
	Name string
	// NumObjects is the total number of objects; following Section 7.1,
	// half become data objects and half feature objects.
	NumObjects int
	// Spatial is the location distribution shared by both datasets.
	Spatial SpatialDist
	// VocabSize is the dictionary size.
	VocabSize int
	// MinKeywords and MaxKeywords bound the per-feature keyword count
	// (drawn uniformly, giving mean (min+max)/2).
	MinKeywords, MaxKeywords int
	// ZipfS > 0 draws words with Zipf-skewed frequencies (natural text);
	// 0 draws words uniformly (the paper's synthetic datasets).
	ZipfS float64
	// Seed makes generation reproducible.
	Seed int64
}

// UniformSpec mirrors the paper's UN dataset scaled to n objects: uniform
// locations, 10–100 keywords per feature from a 1,000-word vocabulary.
func UniformSpec(n int) Spec {
	return Spec{
		Name:        "UN",
		NumObjects:  n,
		Spatial:     Unit(),
		VocabSize:   1000,
		MinKeywords: 10,
		MaxKeywords: 100,
		Seed:        1,
	}
}

// ClusteredSpec mirrors the paper's CL dataset scaled to n objects: 16
// random clusters, otherwise identical to UN.
func ClusteredSpec(n int) Spec {
	s := UniformSpec(n)
	s.Name = "CL"
	s.Spatial = NewClusterDist(16, 0.03, 7)
	s.Seed = 2
	return s
}

// FlickrSpec is the FL surrogate: hotspot-skewed locations, mean 7.9
// keywords per feature, 34,716-word dictionary with Zipfian frequencies.
func FlickrSpec(n int) Spec {
	return Spec{
		Name:        "FL",
		NumObjects:  n,
		Spatial:     HotspotDist(64, 11),
		VocabSize:   34716,
		MinKeywords: 4,
		MaxKeywords: 12,
		ZipfS:       1.2,
		Seed:        3,
	}
}

// TwitterSpec is the TW surrogate: hotspot-skewed locations, mean 9.8
// keywords per feature, 88,706-word dictionary with Zipfian frequencies.
func TwitterSpec(n int) Spec {
	return Spec{
		Name:        "TW",
		NumObjects:  n,
		Spatial:     HotspotDist(96, 13),
		VocabSize:   88706,
		MinKeywords: 5,
		MaxKeywords: 15,
		ZipfS:       1.2,
		Seed:        4,
	}
}

// Dataset is a generated pair of object datasets plus the dictionary their
// keywords are interned in.
type Dataset struct {
	Spec     Spec
	Data     []Object
	Features []Object
	Dict     *text.Dict
}

// Bounds returns the spatial bounds of the dataset.
func (d *Dataset) Bounds() geo.Rect { return d.Spec.Spatial.Bounds() }

// Generate materializes the dataset described by spec.
func Generate(spec Spec) *Dataset {
	if spec.NumObjects <= 0 {
		panic(fmt.Sprintf("data: non-positive dataset size %d", spec.NumObjects))
	}
	if spec.MinKeywords <= 0 || spec.MaxKeywords < spec.MinKeywords {
		panic(fmt.Sprintf("data: bad keyword range [%d,%d]", spec.MinKeywords, spec.MaxKeywords))
	}
	r := rand.New(rand.NewSource(spec.Seed))
	dict := text.NewDict()
	// Pre-intern the full vocabulary so ids are dense and word selection is
	// O(1).
	for i := 0; i < spec.VocabSize; i++ {
		dict.Intern(wordString(i))
	}
	var zipf *rand.Zipf
	if spec.ZipfS > 0 {
		zipf = rand.NewZipf(r, spec.ZipfS, 1, uint64(spec.VocabSize-1))
	}
	pickWord := func() uint32 {
		if zipf != nil {
			return uint32(zipf.Uint64())
		}
		return uint32(r.Intn(spec.VocabSize))
	}

	nData := spec.NumObjects / 2
	nFeat := spec.NumObjects - nData
	ds := &Dataset{Spec: spec, Dict: dict}
	ds.Data = make([]Object, nData)
	for i := range ds.Data {
		ds.Data[i] = Object{Kind: DataObject, ID: uint64(i), Loc: spec.Spatial.Sample(r)}
	}
	ds.Features = make([]Object, nFeat)
	for i := range ds.Features {
		nk := spec.MinKeywords + r.Intn(spec.MaxKeywords-spec.MinKeywords+1)
		if nk > spec.VocabSize {
			nk = spec.VocabSize
		}
		// Draw distinct words: Zipf sampling repeats frequent words often,
		// and a keyword *set* must not shrink below the drawn length.
		ids := make([]uint32, 0, nk)
		seen := make(map[uint32]bool, nk)
		for tries := 0; len(ids) < nk && tries < 50*nk; tries++ {
			w := pickWord()
			if !seen[w] {
				seen[w] = true
				ids = append(ids, w)
			}
		}
		ds.Features[i] = Object{
			Kind:     FeatureObject,
			ID:       uint64(nData + i),
			Loc:      spec.Spatial.Sample(r),
			Keywords: text.NewKeywordSet(ids...),
		}
	}
	return ds
}

// wordString is the synthetic vocabulary: "w0", "w1", ...
func wordString(i int) string { return fmt.Sprintf("w%d", i) }

// Objects returns data and feature objects concatenated (data first), the
// layout used when feeding a whole dataset to an in-memory MapReduce
// source.
func (d *Dataset) Objects() []Object {
	out := make([]Object, 0, len(d.Data)+len(d.Features))
	out = append(out, d.Data...)
	out = append(out, d.Features...)
	return out
}

// RandomQueryKeywords picks n distinct query keywords. When the dataset's
// word frequencies are Zipfian the paper's "random selection from the
// vocabulary" is applied all the same (Section 7.1 reports the selection
// method did not significantly affect execution time).
func (d *Dataset) RandomQueryKeywords(n int, seed int64) text.KeywordSet {
	r := rand.New(rand.NewSource(seed))
	if n > d.Spec.VocabSize {
		n = d.Spec.VocabSize
	}
	seen := make(map[uint32]bool, n)
	ids := make([]uint32, 0, n)
	for len(ids) < n {
		id := uint32(r.Intn(d.Spec.VocabSize))
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return text.NewKeywordSet(ids...)
}

// FrequentQueryKeywords picks n keywords from the most frequent words used
// by feature objects; useful to guarantee non-empty results on Zipfian
// datasets.
func (d *Dataset) FrequentQueryKeywords(n int) text.KeywordSet {
	freq := make(map[uint32]int)
	for _, f := range d.Features {
		for _, kw := range f.Keywords {
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
	// Selection by count descending, id ascending for determinism.
	sortSlice(all, func(a, b wc) bool {
		if a.n != b.n {
			return a.n > b.n
		}
		return a.id < b.id
	})
	if n > len(all) {
		n = len(all)
	}
	ids := make([]uint32, n)
	for i := 0; i < n; i++ {
		ids[i] = all[i].id
	}
	return text.NewKeywordSet(ids...)
}
