// Command spqbench regenerates the paper's evaluation figures (Section 7)
// on the in-process simulated cluster. Each figure is printed as a text
// table with one row per swept x-value and one column (series) per
// algorithm, mirroring the plots of the paper.
//
// Usage:
//
//	spqbench -fig all                 # every figure (the default)
//	spqbench -fig 5a                  # one panel
//	spqbench -fig 8 -scale-unit 1000  # larger scalability sweep
//	spqbench -quick                   # endpoints of each sweep only
//	spqbench -json > figures.json     # machine-readable results
//	spqbench -concurrency 8           # serving throughput: N concurrent
//	                                  # clients vs the serial baseline,
//	                                  # plus the cached repeated workload
//	spqbench -chaos -chaos-seed 7     # replay the workload under seeded
//	                                  # fault injection and node loss,
//	                                  # proving result identity
//	spqbench -churn -chaos-seed 7     # distributed workload under seeded
//	                                  # worker churn (kill/drain/join) and
//	                                  # a 20x straggler; requires at least
//	                                  # one speculative win
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"spq"
	"spq/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure id (5a..5d, 6a..6d, 7a..7d, 8, 9a..9d, df, lb, sh) or 'all'")
		sizeReal = flag.Int("size-real", 0, "objects for FL/TW surrogates (default 150000)")
		sizeSyn  = flag.Int("size-syn", 0, "objects for UN/CL (default 100000)")
		unit     = flag.Int("scale-unit", 0, "Figure 8 size step (default 400: sizes 25600..204800)")
		mapSlots = flag.Int("map-slots", 0, "map worker slots (default NumCPU)")
		redSlots = flag.Int("reduce-slots", 0, "reduce worker slots (default NumCPU)")
		quick    = flag.Bool("quick", false, "run only the endpoints of each sweep")
		repeat   = flag.Int("repeat", 1, "run each measured cell N times and keep the fastest (use 3+ when comparing two runs)")
		verify   = flag.Bool("verify", false, "prove result identity of every measured cell against the full-scan reference (rows gain \"verified\": true)")
		counters = flag.Bool("counters", false, "also print features-examined counters per figure")
		jsonOut  = flag.Bool("json", false, "emit results as a JSON array of rows (figure, series, x, millis, counters) instead of tables")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the figure runs to this file")
		conc     = flag.Int("concurrency", 0, "serving-throughput mode: run the concurrent-query workload with this many clients (skips the figures)")
		appendN  = flag.Int("append", 0, "append-while-serving mode: run the query workload with this many clients while a writer streams records into the sealed engine (skips the figures)")
		chaos    = flag.Bool("chaos", false, "chaos mode: replay the query workload under seeded DFS fault injection and node loss, proving result identity against a fault-free reference (skips the figures)")
		chaosSd  = flag.Int64("chaos-seed", 1, "fault-plan seed for -chaos; every run replays deterministically from it")
		workers  = flag.Int("workers", 0, "distributed mode: run the query workload on this many spawned worker processes over net/rpc, proving result identity against the in-process engine (skips the figures)")
		churn    = flag.Bool("churn", false, "churn mode: run the distributed workload while workers are killed, drained, joined, and slowed 20x under -chaos-seed, proving result identity and speculative wins (skips the figures)")

		// Internal flags of the worker child processes behind -workers.
		runWorker   = flag.Bool("run-worker", false, "internal: serve as a spawned worker process")
		workerSlots = flag.Int("worker-slots", 0, "internal: task slots for -run-worker")
	)
	flag.Parse()

	if *runWorker {
		if err := runWorkerMode(*workerSlots); err != nil {
			fmt.Fprintf(os.Stderr, "spqbench worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *workers > 0 {
		if err := runDistributed(*workers, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *churn {
		if err := runChurn(*chaosSd, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *chaos {
		if err := runChaos(*chaosSd, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *appendN > 0 {
		if err := runAppend(*appendN, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *conc > 0 {
		if err := runConcurrency(*conc, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	h := bench.New(bench.Config{
		SizeReal:      *sizeReal,
		SizeSynthetic: *sizeSyn,
		ScaleUnit:     *unit,
		MapSlots:      *mapSlots,
		ReduceSlots:   *redSlots,
		Quick:         *quick,
		Repeat:        *repeat,
		Verify:        *verify,
	})

	ids := bench.FigureIDs()
	if *fig != "all" {
		ids = []string{*fig}
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	var figures []*bench.Figure
	for _, id := range ids {
		t0 := time.Now()
		figure, err := h.Run(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			figures = append(figures, figure)
			fmt.Fprintf(os.Stderr, "(figure %s took %.1fs)\n", id, time.Since(t0).Seconds())
			continue
		}
		figure.WriteTable(os.Stdout)
		if *counters {
			figure.WriteCounters(os.Stdout)
		}
		fmt.Printf("(figure %s took %.1fs)\n\n", id, time.Since(t0).Seconds())
	}
	if *jsonOut {
		if err := bench.WriteJSON(os.Stdout, figures); err != nil {
			fmt.Fprintf(os.Stderr, "spqbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "total: %.1fs\n", time.Since(start).Seconds())
		return
	}
	fmt.Printf("total: %.1fs\n", time.Since(start).Seconds())
}

// appendWorkload deterministically generates the records of the append
// phase: uniform locations over the unit square, 1–3 keywords per feature
// from a 64-word vocabulary. Returned vocab feeds the query mix.
func appendWorkload(n int) (dataObjs []spq.DataObject, feats []spq.Feature, vocab []string) {
	vocab = make([]string, 64)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("kw%02d", i)
	}
	r := rand.New(rand.NewSource(17))
	dataObjs = make([]spq.DataObject, n/2)
	feats = make([]spq.Feature, n-n/2)
	for i := range dataObjs {
		dataObjs[i] = spq.DataObject{ID: uint64(i + 1), X: r.Float64(), Y: r.Float64()}
	}
	for i := range feats {
		kws := make([]string, 1+r.Intn(3))
		for j := range kws {
			kws[j] = vocab[r.Intn(len(vocab))]
		}
		feats[i] = spq.Feature{ID: uint64(i + 1), X: r.Float64(), Y: r.Float64(), Keywords: kws}
	}
	return dataObjs, feats, vocab
}

// runAppend measures the generational-ingestion serving path: aggregate
// QPS with N query clients against one engine while a writer goroutine
// streams the second half of the dataset into the sealed base, with
// automatic compactions folding the delta into fresh generations along the
// way. Three phases:
//
//  1. N clients over the static sealed base — the baseline QPS;
//  2. the same query mix repeated while the writer appends — the
//     append-under-load QPS, plus generation/compaction accounting;
//  3. after a final compaction, a query-by-query proof that the engine
//     serves exactly the results of a reference engine that loaded
//     everything pre-seal in one batch.
func runAppend(clients int, quick bool) error {
	size, queries := 60000, 240
	if quick {
		size, queries = 8000, 48
	}
	slots := runtime.NumCPU()
	dataObjs, feats, vocab := appendWorkload(size)
	half, fhalf := len(dataObjs)/2, len(feats)/2
	cfg := spq.Config{
		Storage:     spq.StorageMemory,
		MapSlots:    slots,
		ReduceSlots: slots,
		// A few automatic compactions during the stream: the threshold is
		// an eighth of the records the writer appends.
		CompactAfter: (len(dataObjs) - half + len(feats) - fhalf) / 8,
	}
	eng := spq.NewEngine(cfg)
	if err := eng.AddData(dataObjs[:half]...); err != nil {
		return err
	}
	if err := eng.AddFeature(feats[:fhalf]...); err != nil {
		return err
	}
	if err := eng.Seal(); err != nil {
		return err
	}
	baseGen := eng.Generation()

	query := func(i int) spq.Query {
		return spq.Query{K: 10, Radius: 0.02, Keywords: bench.RotatingKeywords(vocab, i)}
	}
	// Both measured phases bypass the cache: between append commits the
	// generation is stable and repeats would be cache hits, which measures
	// the cache instead of the delta-merging read path under comparison.
	run := func(i int) (string, error) {
		res, err := eng.Query(query(i%queries), spq.WithAutoPlan(), spq.WithCache(false))
		return fmt.Sprint(res), err
	}

	fmt.Printf("# append — uniform %d records (half sealed, half streamed), %d distinct queries, %d slots, compact-after %d\n",
		size, queries, slots, cfg.CompactAfter)
	static, _, err := bench.RunConcurrent(queries, clients, run)
	if err != nil {
		return err
	}
	fmt.Println(bench.FormatConcurrencyPoint("static base", static, static))

	// Phase 2: the writer streams the second half in small batches while
	// the clients keep querying; every committed batch bumps the
	// generation, so cache hits are only possible between consecutive
	// commits — the worst case for the cache, the target case for the
	// delta path.
	const batch = 500
	var (
		writerErr error
		done      = make(chan struct{})
	)
	go func() {
		defer close(done)
		d, f := dataObjs[half:], feats[fhalf:]
		for len(d) > 0 || len(f) > 0 {
			nd := min(batch, len(d))
			if nd > 0 {
				if writerErr = eng.AddData(d[:nd]...); writerErr != nil {
					return
				}
				d = d[nd:]
			}
			nf := min(batch, len(f))
			if nf > 0 {
				if writerErr = eng.AddFeature(f[:nf]...); writerErr != nil {
					return
				}
				f = f[nf:]
			}
		}
	}()
	appendQueries := 0
	start := time.Now()
	for {
		p, _, err := bench.RunConcurrent(queries, clients, run)
		if err != nil {
			return err
		}
		appendQueries += p.Queries
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	elapsed := time.Since(start)
	if writerErr != nil {
		return fmt.Errorf("writer: %w", writerErr)
	}
	during := bench.ConcurrencyPoint{
		Clients: clients,
		Queries: appendQueries,
		Millis:  float64(elapsed.Microseconds()) / 1000,
	}
	if s := elapsed.Seconds(); s > 0 {
		during.QPS = float64(appendQueries) / s
	}
	fmt.Println(bench.FormatConcurrencyPoint("while appending", during, static))
	fmt.Printf("generations: %d -> %d (%d delta records uncompacted)\n",
		baseGen, eng.Generation(), eng.DeltaLen())

	// Phase 3: fold the tail in and prove result identity against a
	// reference engine that loaded everything pre-seal.
	if err := eng.Compact(); err != nil {
		return err
	}
	ref := spq.NewEngine(spq.Config{Storage: spq.StorageMemory, MapSlots: slots, ReduceSlots: slots})
	if err := ref.AddData(dataObjs...); err != nil {
		return err
	}
	if err := ref.AddFeature(feats...); err != nil {
		return err
	}
	if err := ref.Seal(); err != nil {
		return err
	}
	runOn := func(e *spq.Engine) bench.QueryFunc {
		return func(i int) (string, error) {
			res, err := e.Query(query(i%queries), spq.WithAutoPlan(), spq.WithCache(false))
			return fmt.Sprint(res), err
		}
	}
	_, wantFPs, err := bench.RunConcurrent(queries, 1, runOn(ref))
	if err != nil {
		return err
	}
	_, gotFPs, err := bench.RunConcurrent(queries, 1, runOn(eng))
	if err != nil {
		return err
	}
	if i := bench.DiffFingerprints(wantFPs, gotFPs); i >= 0 {
		return fmt.Errorf("query %d differs between the appended+compacted engine and the pre-seal batch reference", i)
	}
	fmt.Println("results: appended+compacted engine identical to pre-seal batch load, query by query")
	return nil
}

// runConcurrency measures the serving stack: aggregate QPS with N
// concurrent clients against one shared engine, compared to a 1-client
// serial baseline. Three phases:
//
//  1. serial, cache bypassed — the baseline QPS;
//  2. N clients, cache bypassed — slot-pool sharing only, and a
//     query-by-query proof that concurrent results are identical to
//     serial ones;
//  3. N clients on the repeated workload with the cache on — the steady
//     serving state, where repeats are cache hits.
func runConcurrency(clients int, quick bool) error {
	size, queries := 60000, 240
	if quick {
		size, queries = 8000, 48
	}
	slots := runtime.NumCPU()
	eng := spq.NewEngine(spq.Config{Storage: spq.StorageMemory, MapSlots: slots, ReduceSlots: slots})
	if err := eng.LoadSynthetic("uniform", size); err != nil {
		return err
	}
	if err := eng.Seal(); err != nil {
		return err
	}
	kws := eng.FrequentKeywords(64)
	if len(kws) < 16 {
		return fmt.Errorf("concurrency workload: only %d keywords", len(kws))
	}
	// Distinct query mix: bench.RotatingKeywords guarantees no query
	// repeats within one pass — a repeat would let the cache flatter the
	// no-cache phases.
	query := func(i int) spq.Query {
		return spq.Query{K: 10, Radius: 0.02, Keywords: bench.RotatingKeywords(kws, i)}
	}
	run := func(cache bool) bench.QueryFunc {
		return func(i int) (string, error) {
			opts := []spq.QueryOption{spq.WithAutoPlan()}
			if !cache {
				opts = append(opts, spq.WithCache(false))
			}
			res, err := eng.Query(query(i%queries), opts...)
			return fmt.Sprint(res), err
		}
	}

	fmt.Printf("# concurrency — uniform %d objects, %d distinct queries, %d slots\n", size, queries, slots)
	serial, serialFPs, err := bench.RunConcurrent(queries, 1, run(false))
	if err != nil {
		return err
	}
	fmt.Println(bench.FormatConcurrencyPoint("serial (no cache)", serial, serial))

	conc, concFPs, err := bench.RunConcurrent(queries, clients, run(false))
	if err != nil {
		return err
	}
	fmt.Println(bench.FormatConcurrencyPoint("concurrent (no cache)", conc, serial))
	if i := bench.DiffFingerprints(serialFPs, concFPs); i >= 0 {
		return fmt.Errorf("concurrent query %d returned different results than serial execution", i)
	}
	fmt.Println("results: concurrent execution identical to serial, query by query")

	// Cache phases. Cold: first pass over the distinct mix with the cache
	// on — every query executes and populates its entry. Hot: the same
	// workload repeated, the steady serving state where repeats are cache
	// hits.
	cold, coldFPs, err := bench.RunConcurrent(queries, clients, run(true))
	if err != nil {
		return err
	}
	fmt.Println(bench.FormatConcurrencyPoint("concurrent (cache, cold)", cold, serial))
	if i := bench.DiffFingerprints(serialFPs, coldFPs); i >= 0 {
		return fmt.Errorf("cached query %d returned different results than serial execution", i)
	}
	hot, hotFPs, err := bench.RunConcurrent(queries, clients, run(true))
	if err != nil {
		return err
	}
	fmt.Println(bench.FormatConcurrencyPoint("concurrent (cache, hot)", hot, serial))
	if i := bench.DiffFingerprints(serialFPs, hotFPs); i >= 0 {
		return fmt.Errorf("cache-hit query %d returned different results than serial execution", i)
	}
	cs := eng.CacheStats()
	fmt.Printf("cache: %d hits, %d misses, %d entries\n", cs.Hits, cs.Misses, cs.Entries)
	if cs.Hits == 0 {
		return fmt.Errorf("repeated workload produced no cache hits")
	}
	return nil
}
