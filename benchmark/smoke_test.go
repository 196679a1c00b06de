package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// dist_2w re-execs it as a worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-run-worker" {
		if err := runWorker(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at 1/20 size with one pass, untraced and
// traced, and holds the output to BENCHMARK.json: every metric named there
// is emitted under a well-formed name, finite, with the unit it declares,
// and nothing else is emitted.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	endToEnd := make(map[string]string)
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := make(map[string]string)
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, wl.Name, workloads[i].name)
		}
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.Name, trace), func(t *testing.T) {
				rec, err := run(runConfig{workload: wl.Name, seed: 7, seconds: 1, trace: trace,
					sizeDiv: 20, passes: 1, setups: 1, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d: %s", rec.Correct, rec.Attempted, rec.Failed, rec.FirstFailure)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for name, unit := range want {
					m, ok := rec.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s is named in BENCHMARK.json but not emitted", name)
					case !metricName.MatchString(name):
						t.Errorf("metric name %q is malformed", name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v is not finite", name, m.Value)
					case m.Unit != unit || unit == "":
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
					}
				}
				for name := range rec.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is emitted but not named in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name  string
		b     []float64
		lower bool
		want  string
	}{
		{"same", base, true, "unchanged"},
		{"slower latency", scale(1.2), true, "regressed"},
		{"faster latency", scale(0.8), true, "improved"},
		{"higher throughput", scale(1.2), false, "improved"},
		{"lower throughput", scale(0.8), false, "regressed"},
		{"within bound", scale(1.05), true, "unchanged"},
		{"too noisy", noisy, true, "unresolved"},
	} {
		if got := verdict(base, tc.b, tc.lower, 0.1); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
