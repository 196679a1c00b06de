package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Serving metrics: request outcomes, a fixed-bucket latency histogram for
// tail quantiles, and the aggregated spq.* job counters of every executed
// query. Everything is cheap enough to update on the request path (one
// mutex, no allocation) and is exposed through /metrics (Prometheus-style
// text) and /stats (JSON).

// latencyBounds are the histogram bucket upper bounds in seconds,
// exponential from 100µs to 30s. Quantiles interpolate linearly inside a
// bucket, which is plenty for p50/p95/p99 reporting.
var latencyBounds = []float64{
	0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
	0.1, 0.2, 0.5, 1, 2, 5, 10, 30,
}

// Outcome labels of spqd_requests_total.
const (
	outcomeOK       = "ok"
	outcomeInvalid  = "invalid"
	outcomeShed     = "shed"
	outcomeCanceled = "canceled"
	outcomeError    = "error"
)

type metrics struct {
	mu       sync.Mutex
	outcomes map[string]int64
	// buckets[i] counts served requests with latency <= latencyBounds[i];
	// the implicit last bucket is +Inf. sum/count mirror a Prometheus
	// histogram.
	buckets []int64
	sum     float64
	count   int64
	// counters aggregates the spq.* job counters across served queries.
	counters map[string]int64
}

func newMetrics() *metrics {
	return &metrics{
		outcomes: make(map[string]int64),
		buckets:  make([]int64, len(latencyBounds)+1),
		counters: make(map[string]int64),
	}
}

// observe records one finished request: its outcome and — for served
// requests — the end-to-end latency and the query's job counters.
func (m *metrics) observe(outcome string, d time.Duration, counters map[string]int64) {
	secs := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.outcomes[outcome]++
	if outcome == outcomeOK {
		i := sort.SearchFloat64s(latencyBounds, secs)
		m.buckets[i]++
		m.sum += secs
		m.count++
	}
	for k, v := range counters {
		m.counters[k] += v
	}
}

// quantile returns the q-quantile (0 < q < 1) of the served-latency
// histogram in seconds, interpolated within its bucket; 0 with no data.
func (m *metrics) quantileLocked(q float64) float64 {
	if m.count == 0 {
		return 0
	}
	rank := q * float64(m.count)
	var cum int64
	for i, c := range m.buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = latencyBounds[i-1]
			}
			hi := 2 * lo
			if i < len(latencyBounds) {
				hi = latencyBounds[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return latencyBounds[len(latencyBounds)-1]
}

// Stats is the JSON snapshot served by /stats.
type Stats struct {
	Served   int64 `json:"served"`
	Invalid  int64 `json:"invalid"`
	Shed     int64 `json:"shed"`
	Canceled int64 `json:"canceled"`
	Errors   int64 `json:"errors"`
	// P50/P95/P99/Mean are served-request latencies in milliseconds.
	P50Millis  float64 `json:"p50_ms"`
	P95Millis  float64 `json:"p95_ms"`
	P99Millis  float64 `json:"p99_ms"`
	MeanMillis float64 `json:"mean_ms"`
	// Inflight and Queued snapshot the admission gate.
	Inflight int `json:"inflight"`
	Queued   int `json:"queued"`
	// Generation is the engine's current storage generation.
	Generation uint64 `json:"generation"`
	// Counters are the aggregated spq.* job counters of served queries.
	Counters map[string]int64 `json:"counters,omitempty"`
}

// snapshot builds the /stats view.
func (m *metrics) snapshot(withCounters bool) Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Served:    m.outcomes[outcomeOK],
		Invalid:   m.outcomes[outcomeInvalid],
		Shed:      m.outcomes[outcomeShed],
		Canceled:  m.outcomes[outcomeCanceled],
		Errors:    m.outcomes[outcomeError],
		P50Millis: m.quantileLocked(0.50) * 1e3,
		P95Millis: m.quantileLocked(0.95) * 1e3,
		P99Millis: m.quantileLocked(0.99) * 1e3,
	}
	if m.count > 0 {
		s.MeanMillis = m.sum / float64(m.count) * 1e3
	}
	if withCounters {
		s.Counters = make(map[string]int64, len(m.counters))
		for k, v := range m.counters {
			s.Counters[k] = v
		}
	}
	return s
}

// render writes the Prometheus-style text exposition: request outcomes,
// the latency histogram, gate gauges, and every aggregated spq.* counter
// as spq_counter{name="..."}.
func (m *metrics) render(b *strings.Builder, inflight, queued int, generation uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	outcomes := make([]string, 0, len(m.outcomes))
	for o := range m.outcomes {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	b.WriteString("# TYPE spqd_requests_total counter\n")
	for _, o := range outcomes {
		fmt.Fprintf(b, "spqd_requests_total{outcome=%q} %d\n", o, m.outcomes[o])
	}
	b.WriteString("# TYPE spqd_request_seconds histogram\n")
	var cum int64
	for i, bound := range latencyBounds {
		cum += m.buckets[i]
		fmt.Fprintf(b, "spqd_request_seconds_bucket{le=\"%g\"} %d\n", bound, cum)
	}
	cum += m.buckets[len(latencyBounds)]
	fmt.Fprintf(b, "spqd_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(b, "spqd_request_seconds_sum %g\n", m.sum)
	fmt.Fprintf(b, "spqd_request_seconds_count %d\n", m.count)
	fmt.Fprintf(b, "# TYPE spqd_inflight gauge\nspqd_inflight %d\n", inflight)
	fmt.Fprintf(b, "# TYPE spqd_queue_depth gauge\nspqd_queue_depth %d\n", queued)
	fmt.Fprintf(b, "# TYPE spqd_generation gauge\nspqd_generation %d\n", generation)
	names := make([]string, 0, len(m.counters))
	for k := range m.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	b.WriteString("# TYPE spq_counter counter\n")
	for _, k := range names {
		fmt.Fprintf(b, "spq_counter{name=%q} %d\n", k, m.counters[k])
	}
}
