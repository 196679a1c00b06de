// Concurrent-serving benchmarks.
package bench_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"spq"
	"spq/internal/bench"
)

// servingWorkload builds a sealed engine plus a distinct-query generator,
// the workload of cmd/spqbench -concurrency at benchmark scale.
func servingWorkload(b *testing.B, cfg spq.Config) (*spq.Engine, func(i int) spq.Query) {
	b.Helper()
	eng := spq.NewEngine(cfg)
	if err := eng.LoadSynthetic("uniform", 20000); err != nil {
		b.Fatal(err)
	}
	if err := eng.Seal(); err != nil {
		b.Fatal(err)
	}
	kws := eng.FrequentKeywords(64)
	if len(kws) < 16 {
		b.Fatalf("only %d keywords", len(kws))
	}
	return eng, func(i int) spq.Query {
		return spq.Query{K: 10, Radius: 0.02, Keywords: bench.RotatingKeywords(kws, i)}
	}
}

func benchConcurrentQuery(b *testing.B, opts ...spq.QueryOption) {
	slots := runtime.NumCPU()
	eng, query := servingWorkload(b, spq.Config{Storage: spq.StorageMemory, MapSlots: slots, ReduceSlots: slots})
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1) - 1)
			if _, err := eng.Query(query(i), opts...); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "qps")
	}
}

// BenchmarkConcurrentQuery measures aggregate QPS with GOMAXPROCS
// concurrent clients issuing distinct queries against one shared sealed
// engine — snapshot reads plus shared-slot admission, no cache.
func BenchmarkConcurrentQuery(b *testing.B) {
	benchConcurrentQuery(b, spq.WithAutoPlan(), spq.WithCache(false))
}

// BenchmarkConcurrentQueryCached is the steady serving state: the same
// rotating workload with the query cache on, so warm queries are hits.
func BenchmarkConcurrentQueryCached(b *testing.B) {
	slots := runtime.NumCPU()
	eng, query := servingWorkload(b, spq.Config{Storage: spq.StorageMemory, MapSlots: slots, ReduceSlots: slots})
	// Warm a fixed mix, then serve only warm queries.
	const mix = 64
	for i := 0; i < mix; i++ {
		if _, err := eng.Query(query(i), spq.WithAutoPlan()); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)-1) % mix
			if _, err := eng.Query(query(i), spq.WithAutoPlan()); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "qps")
	}
	if hits := eng.CacheStats().Hits; b.N > 0 && hits == 0 {
		b.Fatal("no cache hits on warm workload")
	}
}

// BenchmarkRunConcurrentHarness exercises the harness itself on a tiny
// workload, so regressions in the measurement loop show up here rather
// than polluting the serving numbers.
func BenchmarkRunConcurrentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, err := bench.RunConcurrent(64, 8, func(int) (string, error) { return "", nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}
