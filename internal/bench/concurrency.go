package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Concurrency harness: measures aggregate query throughput (QPS) when N
// clients issue queries against one shared engine — the serving scenario
// the admission controller and query cache exist for. The harness drives
// any QueryFunc; cmd/spqbench and the package benchmarks supply the engine
// closure.

// QueryFunc executes one query of a workload, identified by its index in
// [0, queries), and returns a deterministic fingerprint of its results.
// Fingerprints let the harness prove that a concurrent execution returned
// exactly the results of the serial one, query by query.
type QueryFunc func(i int) (fingerprint string, err error)

// ConcurrencyPoint is one measured throughput level.
type ConcurrencyPoint struct {
	// Clients is the number of concurrent client goroutines.
	Clients int
	// Queries is the number of queries executed in total.
	Queries int
	// Millis is the wall time for the whole workload.
	Millis float64
	// QPS is the aggregate throughput: Queries / wall seconds.
	QPS float64
}

// RunConcurrent executes queries 0..queries-1 across the given number of
// client goroutines (1 = the serial baseline) pulling from a shared
// index, and returns the measured throughput plus the per-query result
// fingerprints. The first query error aborts the run.
func RunConcurrent(queries, clients int, run QueryFunc) (ConcurrencyPoint, []string, error) {
	if clients < 1 {
		clients = 1
	}
	if clients > queries {
		clients = queries
	}
	fps := make([]string, queries)
	var (
		next     atomic.Int64
		failed   atomic.Bool
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= queries || failed.Load() {
					return
				}
				fp, err := run(i)
				if err != nil {
					if failed.CompareAndSwap(false, true) {
						firstErr.Store(err)
					}
					return
				}
				fps[i] = fp
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok {
		return ConcurrencyPoint{}, nil, err
	}
	p := ConcurrencyPoint{
		Clients: clients,
		Queries: queries,
		Millis:  float64(elapsed.Microseconds()) / 1000,
	}
	if s := elapsed.Seconds(); s > 0 {
		p.QPS = float64(queries) / s
	}
	return p, fps, nil
}

// DiffFingerprints compares two fingerprint sets of the same workload and
// returns the index of the first query whose results differ, or -1 when
// the executions are identical.
func DiffFingerprints(a, b []string) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// RotatingKeywords returns the i-th keyword triple of the serving
// workload shared by cmd/spqbench -concurrency and the package's
// concurrent benchmarks. The three rotation moduli are pairwise coprime
// for the workload sizes in use (len(kws), len(kws)-3, len(kws)-5 with
// len(kws) >= 16), so the combination period far exceeds any pass and no
// query repeats — a repeat would let the query cache flatter the
// no-cache phases. Callers must supply at least 16 keywords.
func RotatingKeywords(kws []string, i int) []string {
	m1, m2, m3 := len(kws), len(kws)-3, len(kws)-5
	return []string{kws[i%m1], kws[(i*7+3)%m2], kws[(i*13+5)%m3]}
}

// Speedup returns b.QPS / a.QPS (0 when a is unmeasurable).
func Speedup(a, b ConcurrencyPoint) float64 {
	if a.QPS == 0 {
		return 0
	}
	return b.QPS / a.QPS
}

// FormatConcurrencyPoint renders one measured level as a table row.
func FormatConcurrencyPoint(label string, p ConcurrencyPoint, baseline ConcurrencyPoint) string {
	return fmt.Sprintf("%-28s  clients=%-3d queries=%-5d %9.1f ms  %8.1f qps  %5.2fx",
		label, p.Clients, p.Queries, p.Millis, p.QPS, Speedup(baseline, p))
}
