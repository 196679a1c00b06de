package data

import (
	"testing"

	"spq/internal/dfs"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// BenchmarkColdBlockOpen measures the read path of a query whose working
// set is larger than the segment cache: the feature cells of a CL-like
// corpus (16 clusters, 1,000-word uniform vocabulary, 10-100 keywords per
// feature) sealed on a 16x16 grid into the DFS, read through ColInput
// with no cache, so every block is fetched by ranged read and opened
// again, then resolved against a query of the 3 most frequent keywords
// with CountHits. One op reads every feature block once; run with
// -benchmem, the allocations per op are the cost of the ranged reads and
// the opens.
func BenchmarkColdBlockOpen(b *testing.B) {
	ds := Generate(ClusteredSpec(20000))
	fs := dfs.New(dfs.Config{NumNodes: 4})
	man, err := PartitionObjects(grid.NewSquare(16), ds.Objects()).SealDFS(fs, "cl", ds.Dict)
	if err != nil {
		b.Fatal(err)
	}
	cells := SelectAll(man.Features)
	blocks := 0
	for _, cs := range man.Features {
		blocks += len(cs.Blocks)
	}
	q := ds.FrequentQueryKeywords(3)
	hits := make([]uint32, colMaxBlockRecords)
	marks := make([]uint64, colMaxBlockRecords/64)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		splits, err := NewColInput(fs, cells, nil, 1).Splits()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range splits {
			err := s.(mapreduce.BatchSplit).EachBatch(func(batch any) bool {
				blk := batch.(*ColumnBlock)
				n := blk.Len()
				if err := blk.CountHits(q, hits[:n], marks[:(n+63)/64]); err != nil {
					b.Fatal(err)
				}
				clear(hits[:n])
				clear(marks[:(n+63)/64])
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(blocks), "blocks/op")
}
