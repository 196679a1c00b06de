package spq_test

// Benchmarks regenerating the paper's evaluation (Section 7). Each
// BenchmarkFig* runs the corresponding figure panel of the experiment
// harness at a reduced scale suitable for `go test -bench`; the full-scale
// sweeps (with the paper's exact parameter grids) are produced by
// `go run ./cmd/spqbench`.
//
// BenchmarkAblation* cover two design choices: Map-side keyword pruning
// and the grid resolution.

import (
	"testing"

	"spq"
	"spq/internal/bench"
	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// benchHarnessCfg keeps -bench runs quick while preserving enough density
// for early termination to engage.
var benchHarnessCfg = bench.Config{
	SizeReal:      20000,
	SizeSynthetic: 20000,
	ScaleUnit:     50,
	Quick:         true,
}

func benchFigure(b *testing.B, id string) {
	h := bench.New(benchHarnessCfg)
	// Warm the dataset cache so generation cost is excluded.
	if _, err := h.Run(id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 5: Flickr surrogate.
func BenchmarkFig5aGridSize(b *testing.B) { benchFigure(b, "5a") }
func BenchmarkFig5bKeywords(b *testing.B) { benchFigure(b, "5b") }
func BenchmarkFig5cRadius(b *testing.B)   { benchFigure(b, "5c") }
func BenchmarkFig5dTopK(b *testing.B)     { benchFigure(b, "5d") }

// Figure 6: Twitter surrogate.
func BenchmarkFig6aGridSize(b *testing.B) { benchFigure(b, "6a") }
func BenchmarkFig6bKeywords(b *testing.B) { benchFigure(b, "6b") }
func BenchmarkFig6cRadius(b *testing.B)   { benchFigure(b, "6c") }
func BenchmarkFig6dTopK(b *testing.B)     { benchFigure(b, "6d") }

// Figure 7: Uniform.
func BenchmarkFig7aGridSize(b *testing.B) { benchFigure(b, "7a") }
func BenchmarkFig7bKeywords(b *testing.B) { benchFigure(b, "7b") }
func BenchmarkFig7cRadius(b *testing.B)   { benchFigure(b, "7c") }
func BenchmarkFig7dTopK(b *testing.B)     { benchFigure(b, "7d") }

// Figure 8: scalability with dataset size.
func BenchmarkFig8Scalability(b *testing.B) { benchFigure(b, "8") }

// Figure 9: Clustered (pSPQ omitted, as in the paper).
func BenchmarkFig9aGridSize(b *testing.B) { benchFigure(b, "9a") }
func BenchmarkFig9bKeywords(b *testing.B) { benchFigure(b, "9b") }
func BenchmarkFig9cRadius(b *testing.B)   { benchFigure(b, "9c") }
func BenchmarkFig9dTopK(b *testing.B)     { benchFigure(b, "9d") }

// Section 6.2: duplication factor, measured vs model.
func BenchmarkDuplicationFactor(b *testing.B) { benchFigure(b, "df") }

// benchWorkload builds one in-memory workload shared by the per-algorithm
// and ablation benchmarks.
func benchWorkload() (*data.Dataset, core.Query) {
	ds := data.Generate(data.UniformSpec(20000))
	q := core.Query{
		K:        10,
		Radius:   0.10 / 8, // 10% of the cell edge of an 8x8 grid
		Keywords: ds.RandomQueryKeywords(3, 42),
	}
	return ds, q
}

func benchAlgorithm(b *testing.B, alg core.Algorithm, opts core.Options) {
	ds, q := benchWorkload()
	cluster := mapreduce.NewCluster(nil, 4, 4)
	opts.Cluster = cluster
	opts.Bounds = ds.Bounds()
	if opts.GridN == 0 {
		opts.GridN = 8
	}
	src := mapreduce.NewMemorySource(ds.Objects(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(alg, src, q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-algorithm benchmarks on the same dense workload: the ordering
// eSPQsco < eSPQlen < pSPQ is the paper's headline result.
func BenchmarkAlgorithmPSPQ(b *testing.B)    { benchAlgorithm(b, core.PSPQ, core.Options{}) }
func BenchmarkAlgorithmESPQLen(b *testing.B) { benchAlgorithm(b, core.ESPQLen, core.Options{}) }
func BenchmarkAlgorithmESPQSco(b *testing.B) { benchAlgorithm(b, core.ESPQSco, core.Options{}) }

// Ablation: grid resolution — the Section 6.3 trade-off between
// duplication (coarse grids) and parallelism (fine grids).
func BenchmarkAblationGrid4(b *testing.B)  { benchAlgorithm(b, core.ESPQSco, core.Options{GridN: 4}) }
func BenchmarkAblationGrid16(b *testing.B) { benchAlgorithm(b, core.ESPQSco, core.Options{GridN: 16}) }
func BenchmarkAblationGrid32(b *testing.B) { benchAlgorithm(b, core.ESPQSco, core.Options{GridN: 32}) }

// End-to-end benchmark through the public API on the default sealed
// storage: unplanned queries over SPQ3 column blocks in the DFS.
func BenchmarkPublicAPIQueryDFS(b *testing.B) {
	e := spq.NewEngine(spq.Config{Seed: 1})
	if err := e.LoadSynthetic("uniform", 20000); err != nil {
		b.Fatal(err)
	}
	kws := e.FrequentKeywords(3)
	if err := e.Seal(); err != nil {
		b.Fatal(err)
	}
	q := spq.Query{K: 10, Radius: 0.01, Keywords: kws}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(q, spq.WithGrid(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// Centralized baselines vs the distributed algorithms on the same
// workload: at laptop scale the centralized plans win (no shuffle); the
// paper's point is that they stop being an option at cluster scale.
func BenchmarkCentralizedNaive(b *testing.B) {
	ds, q := benchWorkload()
	objs := ds.Objects()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NaiveCentralized(objs, q)
	}
}

func BenchmarkCentralizedGrid(b *testing.B) {
	ds, q := benchWorkload()
	objs := ds.Objects()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GridCentralized(objs, q, ds.Bounds(), 32)
	}
}

func BenchmarkCentralizedRTree(b *testing.B) {
	ds, q := benchWorkload()
	objs := ds.Objects()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RTreeCentralized(objs, q)
	}
}

func BenchmarkCentralizedInvertedIndex(b *testing.B) {
	ds, q := benchWorkload()
	objs := ds.Objects()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.InvertedIndexCentralized(objs, q)
	}
}

// Scoring-mode extensions under the default algorithm configuration.
func BenchmarkModeInfluenceESPQSco(b *testing.B) {
	ds, q := benchWorkload()
	q.Mode = core.ScoreInfluence
	cluster := mapreduce.NewCluster(nil, 4, 4)
	src := mapreduce.NewMemorySource(ds.Objects(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.ESPQSco, src, q, core.Options{
			Cluster: cluster, Bounds: ds.Bounds(), GridN: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkModeNearestPSPQ(b *testing.B) {
	ds, q := benchWorkload()
	q.Mode = core.ScoreNearest
	cluster := mapreduce.NewCluster(nil, 4, 4)
	src := mapreduce.NewMemorySource(ds.Objects(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.PSPQ, src, q, core.Options{
			Cluster: cluster, Bounds: ds.Bounds(), GridN: 8,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: cost-based (LPT) reducer balancing vs round-robin on skewed
// data with few reducers — the §7.2.4 scenario.
func benchBalance(b *testing.B, balance bool) {
	ds := data.Generate(data.ClusteredSpec(20000))
	q := core.Query{K: 10, Radius: 0.10 / 8, Keywords: ds.RandomQueryKeywords(3, 42)}
	cluster := mapreduce.NewCluster(nil, 4, 4)
	src := mapreduce.NewMemorySource(ds.Objects(), 8)
	var table []int32
	if balance {
		weights, err := core.CellWeights(src, grid.New(ds.Bounds(), 8, 8), q)
		if err != nil {
			b.Fatal(err)
		}
		table = core.BalanceCells(weights, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.ESPQSco, src, q, core.Options{
			Cluster: cluster, Bounds: ds.Bounds(), GridN: 8,
			NumReducers: 4, CellReducer: table,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRoundRobinReducers(b *testing.B) { benchBalance(b, false) }
func BenchmarkAblationBalancedReducers(b *testing.B)   { benchBalance(b, true) }
