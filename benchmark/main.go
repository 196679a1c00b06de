// Command benchmark is the repository benchmark (see README.md beside it
// and BENCHMARK.json at the repository root). One invocation measures one
// workload:
//
//	benchmark --workload query_hot --seed 1 --seconds 13 --trace 0
//
// prints every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1) by name with its unit, verifies the program's outputs, and
// ends with one JSON line holding the same numbers.
//
//	benchmark -compare a.jsonl b.jsonl
//
// judges two sets of runs against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// runConfig is one run. The fields below the flags are fixed in the real
// command; the smoke test shrinks them.
type runConfig struct {
	workload string
	seed     int64
	seconds  int // nominal measuring time; scales the per-pass operation counts
	trace    bool

	sizeDiv int    // dataset size divisor
	passes  int    // measured passes; each end-to-end metric is their median
	setups  int    // consecutive fresh builds behind setup_s
	outDir  string // results and trace files
}

const (
	defaultPasses = 5
	defaultSetups = 3
	// A traced run measures tracePasses passes untraced and as many traced.
	tracePasses = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the results file of one run: what the last stdout line says
// plus the per-pass values behind each median.
type runRecord struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Seconds      int                  `json:"seconds"`
	Trace        bool                 `json:"trace"`
	Correct      bool                 `json:"correct"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	FirstFailure string               `json:"first_failure,omitempty"`
	Metrics      map[string]metric    `json:"metrics"`
	Passes       map[string][]float64 `json:"passes,omitempty"`
	Notes        map[string]float64   `json:"notes,omitempty"`
}

func newWorkload(b *bench) (workload, error) {
	for _, wl := range workloads {
		if wl.name == b.cfg.workload {
			return wl.new(b), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", b.cfg.workload)
}

// passStats is one measured pass: the named per-pass values the medians
// are taken over, and the samples behind them.
type passStats struct {
	values map[string]float64
	res    *passResult
}

// column returns one per-pass value across passes.
func column(passes []passStats, name string) []float64 {
	out := make([]float64, len(passes))
	for i, ps := range passes {
		out[i] = ps.values[name]
	}
	return out
}

func run(cfg runConfig) (*runRecord, error) {
	nproc := runtime.NumCPU()
	b := &bench{
		cfg:     cfg,
		slots:   nproc,
		clients: min(2, nproc),
		check:   &checker{ref: make(map[string]string)},
		rand:    rand.New(rand.NewSource(cfg.seed)),
	}
	w, err := newWorkload(b) // benchmark-side generation: not part of set-up
	if err != nil {
		return nil, err
	}
	defer w.teardown()

	// One set-up sample is a fresh build through the public API plus the
	// first eighth of the operation list, so that work a change moves from
	// the queries into the build, or into the first queries, shows.
	var setups []float64
	fresh := func() error {
		w.teardown()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		w.warm(w.numOps() / 8)
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	nSetups := cfg.setups
	if w.rebuildEachPass() {
		nSetups = 1 // every pass adds its own
	}
	for i := 0; i < nSetups; i++ {
		if err := fresh(); err != nil {
			return nil, err
		}
	}
	w.pass(nil) // unmeasured warm-up; its results are what later passes must repeat

	measure := func(tr *tracer) (passStats, error) {
		if w.rebuildEachPass() {
			if err := fresh(); err != nil {
				return passStats{}, err
			}
		}
		runtime.GC()
		calib := calibrate()
		u0 := readUsage(w.workerPids())
		res := w.pass(tr)
		u1 := readUsage(w.workerPids())
		lat := res.latencies(opQuery)
		n := float64(res.queries())
		return passStats{res: res, values: map[string]float64{
			"qps":                res.qps(),
			"query_p50_ms":       percentile(lat, 0.5),
			"query_p90_ms":       percentile(lat, 0.9),
			"query_p99_ms":       percentile(lat, 0.99),
			"cpu_ms_per_query":   ms(u1.cpu-u0.cpu) / n,
			"alloc_kb_per_query": float64(u1.alloc-u0.alloc) / 1e3 / n,
			"wall_s":             res.wall.Seconds(),
			"calib_ms":           ms(calib),
		}}, nil
	}
	nPasses := cfg.passes
	if cfg.trace {
		nPasses = tracePasses
	}
	// A traced run alternates untraced and traced passes, so that machine
	// drift falls on both sides of the tracing-overhead ratio alike.
	var plain, traced []passStats
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for i := 0; i < nPasses; i++ {
		ps, err := measure(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ps)
		if cfg.trace {
			if ps, err = measure(tr); err != nil {
				return nil, err
			}
			traced = append(traced, ps)
		}
	}

	verifyOutputs(b, w)
	rec := &runRecord{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Passes: make(map[string][]float64), Notes: make(map[string]float64)}
	for name := range plain[0].values {
		rec.Passes[name] = column(plain, name)
	}
	rec.Passes["setup_s"] = setups
	qps := rec.Passes["qps"]
	rec.Notes["pass_spread_qps"] = percentile(qps, 1) / percentile(qps, 0)
	rec.Notes["calib_ms"] = median(rec.Passes["calib_ms"])

	if cfg.trace {
		rec.Metrics = layerMetrics(b, w, tr, plain, traced, rec.Notes)
		if err := tr.write(cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
	} else {
		stored := storedBytesPerRecord(w.engine().Manifest())
		eng := w.engine()
		w.dropInputs()
		heap := liveHeapMB()
		runtime.KeepAlive(eng)
		rec.Metrics = map[string]metric{
			"setup_s":                 {median(setups), "s"},
			"qps":                     {median(qps), "1/s"},
			"query_p50_ms":            {median(rec.Passes["query_p50_ms"]), "ms"},
			"query_p90_ms":            {median(rec.Passes["query_p90_ms"]), "ms"},
			"cpu_ms_per_query":        {median(rec.Passes["cpu_ms_per_query"]), "ms"},
			"alloc_kb_per_query":      {median(rec.Passes["alloc_kb_per_query"]), "kB"},
			"live_heap_mb":            {heap, "MB"},
			"stored_bytes_per_record": {stored, "B"},
		}
	}
	rec.Attempted, rec.Failed, rec.FirstFailure = b.check.attempted, b.check.failed, b.check.first
	rec.Correct = b.check.wrong == 0
	return rec, nil
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to measure: scan_cold, query_hot, dist_2w, serve_mixed or ingest_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", nominalSeconds, "nominal measuring time; scales the per-pass operation counts")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	compare := flag.Bool("compare", false, "compare two sets of runs: -compare a.jsonl b.jsonl")
	worker := flag.Bool("run-worker", false, "internal: serve mapreduce tasks until stdin closes (dist_2w re-exec)")
	flag.Parse()

	switch {
	case *worker:
		if err := runWorker(); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if cfg.seconds < 1 || trace < 0 || trace > 1 {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	cfg.trace = trace == 1
	cfg.sizeDiv, cfg.passes, cfg.setups, cfg.outDir = 1, defaultPasses, defaultSetups, filepath.Join("benchmark", "out")
	rec, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace))
	if err := writeJSON(path, rec); err != nil {
		fatal(err)
	}
	printRecord(rec)
	if !rec.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printRecord prints the metric table and, as the last line, the JSON
// object the driver reads.
func printRecord(rec *runRecord) {
	fmt.Printf("# %s seed=%d seconds=%d trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, name := range slices.Sorted(maps.Keys(rec.Metrics)) {
		m := rec.Metrics[name]
		fmt.Printf("%-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range slices.Sorted(maps.Keys(rec.Notes)) {
		fmt.Printf("# %-38s %14.4f\n", name, rec.Notes[name])
	}
	if rec.FirstFailure != "" {
		fmt.Printf("# first failure: %s\n", rec.FirstFailure)
	}
	last, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}
