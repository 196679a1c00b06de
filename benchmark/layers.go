package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"strings"
	"time"

	"spq"
	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// perLayerUnits lists every per-layer metric with its unit; BENCHMARK.json
// names the same set (the smoke test holds the two together). The prefix of
// a name is the module it measures. A metric that does not apply to a
// workload (serve.* off serve_mixed, RPC off dist_2w) reads 0 there.
var perLayerUnits = map[string]string{
	"spq.query_ms":                "ms",
	"spq.glue_ms":                 "ms",
	"spq.map_ms":                  "ms",
	"spq.reduce_ms":               "ms",
	"spq.job_other_ms":            "ms",
	"spq.qcache_hit_ratio":        "ratio",
	"spq.delta_records_per_query": "count",
	"spq.append_p50_ms":           "ms",
	"spq.append_us_per_record":    "us",
	"spq.compact_ms":              "ms",

	"plan.plan_us":                "us",
	"plan.blocks_pruned_ratio":    "ratio",
	"plan.records_selected_ratio": "ratio",

	"data.seg_read_kb_per_query":    "kB",
	"data.seg_decoded_kb_per_query": "kB",
	"data.segcache_hit_ratio":       "ratio",
	"data.decode_mb_s":              "MB/s",
	"data.encode_mb_s":              "MB/s",
	"data.partition_ms":             "ms",

	"dfs.read_mb_s":  "MB/s",
	"dfs.write_mb_s": "MB/s",
	"dfs.failovers":  "count",

	"core.job_ms.pspq":                   "ms",
	"core.job_ms.espqlen":                "ms",
	"core.job_ms.espqsco":                "ms",
	"core.view_build_ms":                 "ms",
	"core.features_examined_per_query":   "count",
	"core.score_computations_per_query":  "count",
	"core.early_terminations_per_query":  "count",
	"core.features_duplicated_per_query": "count",
	"mapreduce.tasks_per_query":          "count",
	"mapreduce.sched_wait_ms":            "ms",
	"mapreduce.queue_depth_max":          "count",
	"mapreduce.min_job_ms":               "ms",
	"mapreduce.rpc_kb_per_query":         "kB",
	"mapreduce.tasks_per_worker_skew":    "ratio",
	"mapreduce.reexec":                   "count",
	"mapreduce.fallback_local":           "count",
	"serve.handler_ms":                   "ms",
	"serve.http_overhead_ms":             "ms",
	"serve.wire_encode_us":               "us",
	"serve.wire_decode_us":               "us",
	"serve.shed_ratio":                   "ratio",
	"serve.queued_max":                   "count",
	"text.jaccard_ns":                    "ns",
	"text.intern_ns_per_word":            "ns",
	"bench.gen_late_ms_p90":              "ms",
	"bench.pass_spread.qps":              "ratio",
	"bench.calib_ms":                     "ms",
	"bench.trace_overhead_ratio":         "ratio",
	"bench.query_p99_ms":                 "ms",
}

// layerMetrics turns the traced passes, the program's own reports and
// stats, and the shadow layer calls into the per-layer metrics.
func layerMetrics(b *bench, w workload, tr *tracer, plain, traced []passStats, notes map[string]float64) map[string]metric {
	v := make(map[string]float64, len(perLayerUnits))

	// spq: where one executed query's wall time goes. The four parts are
	// means over the central fifth of the executed queries by wall time,
	// so they add up to spq.query_ms, which is that band's mean wall time
	// and sits at the median spq.query span.
	var executed []queryObs
	sums := make(map[string]float64) // program counters summed over executed queries
	var hits, deltaRecords float64
	var blocks, blocksPruned, recTotal, recSelected float64
	for _, o := range tr.queries {
		if o.rep.Counters[spq.CounterCacheHit] != 0 {
			hits++
			continue
		}
		executed = append(executed, o)
		for name, n := range o.rep.Counters {
			sums[name] += float64(n)
		}
		if o.rep.Delta != nil {
			deltaRecords += float64(o.rep.Delta.Records)
		}
		if p := o.rep.Plan; p != nil {
			blocks += float64(p.Blocks)
			blocksPruned += float64(p.BlocksPruned)
			recTotal += float64(p.RecordsTotal)
			recSelected += float64(p.RecordsSelected)
		}
	}
	if len(executed) == 0 {
		panic("benchmark: a traced pass executed no query") // every workload's list holds uncached queries
	}
	nq := float64(len(executed))
	sort.Slice(executed, func(i, j int) bool { return executed[i].wallMs < executed[j].wallMs })
	band := executed[len(executed)*2/5 : max(len(executed)*2/5+1, len(executed)*3/5)]
	for _, o := range band {
		n := float64(len(band))
		v["spq.query_ms"] += o.wallMs / n
		v["spq.glue_ms"] += (o.wallMs - o.rep.TotalMillis) / n
		v["spq.map_ms"] += o.rep.MapMillis / n
		v["spq.reduce_ms"] += o.rep.ReduceMillis / n
		v["spq.job_other_ms"] += (o.rep.TotalMillis - o.rep.MapMillis - o.rep.ReduceMillis) / n
	}
	v["spq.qcache_hit_ratio"] = hits / float64(max(1, len(tr.queries)))
	v["spq.delta_records_per_query"] = deltaRecords / nq

	var appendMs, compactMs []float64
	for _, ps := range traced {
		appendMs = append(appendMs, ps.res.latencies(opAppend)...)
		compactMs = append(compactMs, ps.res.latencies(opCompact)...)
	}
	v["spq.append_p50_ms"] = median(appendMs)
	v["spq.append_us_per_record"] = median(appendMs) * 1e3 / (2 * ingestBatch)
	v["spq.compact_ms"] = median(compactMs)

	v["plan.plan_us"] = median(tr.durations("plan.plan")) * 1e3
	if blocks > 0 {
		v["plan.blocks_pruned_ratio"] = blocksPruned / blocks
	}
	if recTotal > 0 {
		v["plan.records_selected_ratio"] = recSelected / recTotal
	}

	v["data.seg_read_kb_per_query"] = sums[spq.CounterSegBytesRead] / 1e3 / nq
	v["data.seg_decoded_kb_per_query"] = sums[spq.CounterSegBytesDecoded] / 1e3 / nq
	if sc := w.engine().SegmentCacheStats(); sc.Hits+sc.Misses > 0 {
		v["data.segcache_hit_ratio"] = float64(sc.Hits) / float64(sc.Hits+sc.Misses)
	}
	v["dfs.failovers"] = float64(w.engine().FaultStats().FailoverReads)

	v["core.features_examined_per_query"] = sums[core.CounterFeaturesExamined] / nq
	v["core.score_computations_per_query"] = sums[core.CounterScoreComputations] / nq
	v["core.early_terminations_per_query"] = sums[core.CounterEarlyTerminations] / nq
	v["core.features_duplicated_per_query"] = sums[core.CounterDuplicates] / nq

	// mapreduce: a local task is one slot admission; a remote task is
	// counted under its worker's name.
	var perWorker []float64
	for name, n := range sums {
		if strings.HasPrefix(name, mapreduce.CounterExecTasksPrefix) {
			perWorker = append(perWorker, n)
		}
	}
	tasks := sums[mapreduce.CounterSchedAdmitted]
	if len(perWorker) > 0 {
		tasks = 0
		for _, n := range perWorker {
			tasks += n
		}
		v["mapreduce.tasks_per_worker_skew"] = percentile(perWorker, 1) / max(1, percentile(perWorker, 0))
	}
	v["mapreduce.tasks_per_query"] = tasks / nq
	v["mapreduce.sched_wait_ms"] = sums[mapreduce.CounterSchedWaitMicros] / 1e3 / nq
	for _, o := range executed {
		v["mapreduce.queue_depth_max"] = max(v["mapreduce.queue_depth_max"], float64(o.rep.Counters[mapreduce.CounterSchedMaxQueueDepth]))
	}
	v["mapreduce.rpc_kb_per_query"] = sums[mapreduce.CounterExecRPCBytes] / 1e3 / nq
	v["mapreduce.reexec"] = sums[mapreduce.CounterExecReexec]
	v["mapreduce.fallback_local"] = sums[mapreduce.CounterExecFallbackLocal]

	w.layerMetrics(tr, v)

	var late []float64
	for _, ps := range plain {
		late = append(late, ps.res.lateMs...)
	}
	v["bench.gen_late_ms_p90"] = percentile(late, 0.9)
	v["bench.pass_spread.qps"] = notes["pass_spread_qps"]
	v["bench.calib_ms"] = notes["calib_ms"]
	v["bench.trace_overhead_ratio"] = median(column(traced, "wall_s")) / median(column(plain, "wall_s"))
	v["bench.query_p99_ms"] = median(column(plain, "query_p99_ms"))

	shadowLayers(b, w, tr, v)

	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		out[name] = metric{v[name], unit}
	}
	return out
}

// timeMedian returns the median wall time in ms of n calls of f.
func timeMedian(n int, f func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = ms(time.Since(t0))
	}
	return median(xs)
}

// shadowLayers calls each lower layer's public functions directly, on the
// workload's own generated objects, to time that layer alone: the codec and
// partitioner of data, a benchmark-owned dfs, the paper's three algorithms
// in core over an in-memory source (no storage), the per-job floor of
// mapreduce, and the two text primitives. Each is recorded as a shadow span.
func shadowLayers(b *bench, w workload, tr *tracer, v map[string]float64) {
	objs, dict := w.oracle()
	var feats, dataObjs []data.Object
	for _, o := range objs {
		if o.Kind == data.FeatureObject {
			feats = append(feats, o)
		} else {
			dataObjs = append(dataObjs, o)
		}
	}
	req := b.cfg.workload + "/shadow"
	shadow := func(name string, f func()) float64 {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.add(name, req, 0, t0, d, true)
		return d.Seconds()
	}

	// data: encode the features as SPQ3 blocks, then decode every frame.
	codec := feats[:min(len(feats), 20000)]
	var seg bytes.Buffer
	var stats []data.BlockStats
	enc := shadow("data.encode", func() {
		cw := data.NewCol3Writer(&seg, data.FeatureObject, dict, data.AdaptiveBlockRecords(len(codec)))
		for _, o := range codec {
			cw.Append(o) //nolint:errcheck // kind matches and bytes.Buffer cannot fail
		}
		cw.Close() //nolint:errcheck // as above
		stats = cw.Stats()
	})
	raw := seg.Bytes()
	dec := shadow("data.decode", func() {
		for _, bs := range stats {
			if _, err := data.DecodeColFrame(raw[bs.Offset : bs.Offset+int64(bs.Length)]); err != nil {
				panic(err) // the benchmark's own encoding failed to decode
			}
		}
	})
	v["data.encode_mb_s"] = float64(len(raw)) / 1e6 / enc
	v["data.decode_mb_s"] = float64(len(raw)) / 1e6 / dec
	unit := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	v["data.partition_ms"] = 1e3 * shadow("data.partition", func() {
		data.PartitionObjects(grid.New(unit, spq.DefaultSealGridN, spq.DefaultSealGridN), objs)
	})

	// dfs: 8 MB written in 64 KiB chunks, then read back by 64 KiB ranges;
	// every read verifies the block checksums.
	fs := dfs.New(dfs.Config{NumNodes: 4, Seed: b.cfg.seed})
	chunk := bytes.Repeat([]byte("spq-benchmark..."), 4096)
	const chunks = 128
	v["dfs.write_mb_s"] = float64(chunks*len(chunk)) / 1e6 / shadow("dfs.write", func() {
		fw, err := fs.Writer("bench")
		if err != nil {
			panic(err) // a fresh file system has no such file
		}
		for i := 0; i < chunks; i++ {
			fw.Write(chunk) //nolint:errcheck // a healthy in-memory dfs; Close reports
		}
		if err := fw.Close(); err != nil {
			panic(err)
		}
	})
	v["dfs.read_mb_s"] = float64(chunks*len(chunk)) / 1e6 / shadow("dfs.read", func() {
		for i := 0; i < chunks; i++ {
			off := int64((i*37)%chunks) * int64(len(chunk))
			if got, err := fs.ReadRange("bench", off, len(chunk)); err != nil || len(got) != len(chunk) {
				panic("dfs ranged read failed")
			}
		}
	})

	// core: the three algorithms on one of the workload's own queries.
	q := w.verifyQueries()[0].q
	cq := core.Query{K: q.K, Radius: q.Radius, Keywords: dict.LookupAll(q.Keywords)}
	cluster := mapreduce.NewCluster(nil, b.slots, b.slots)
	src := mapreduce.NewMemorySource(objs, 2*b.slots)
	for _, alg := range core.Algorithms() {
		v["core.job_ms."+strings.ToLower(alg.String())] = timeMedian(3, func() {
			shadow("core.job", func() {
				if _, err := core.RunContext(context.Background(), alg, src, cq, core.Options{Cluster: cluster, Bounds: unit, GridN: 16}); err != nil {
					panic(err)
				}
			})
		})
	}
	v["core.view_build_ms"] = 1e3 * shadow("core.view_build", func() {
		if _, err := core.BuildDataView(grid.New(unit, 16, 16), mapreduce.NewMemorySource(dataObjs, 2*b.slots)); err != nil {
			panic(err)
		}
	})

	// mapreduce: a one-record job is what every query pays before any work.
	one := &mapreduce.Job[int, int, int, int]{
		Name:        "floor",
		Source:      mapreduce.NewMemorySource([]int{1}, 1),
		NumReducers: 1,
		Map:         func(_ *mapreduce.TaskContext, r int, emit func(int, int)) error { emit(r, r); return nil },
		Partition:   func(int, int) int { return 0 },
		Less:        func(a, b int) bool { return a < b },
		Reduce: func(_ *mapreduce.TaskContext, vs *mapreduce.Values[int, int], emit func(int)) error {
			for x, ok := vs.Next(); ok; x, ok = vs.Next() {
				emit(x)
			}
			return nil
		},
	}
	v["mapreduce.min_job_ms"] = timeMedian(50, func() {
		if _, err := mapreduce.Run(cluster, one); err != nil {
			panic(err)
		}
	})

	// text: Jaccard of the query against every sampled feature, and
	// interning the sampled features' words into a fresh dictionary.
	sample := feats[:min(len(feats), 5000)]
	sink := 0.0
	v["text.jaccard_ns"] = 1e9 * shadow("text.jaccard", func() {
		for rep := 0; rep < 20; rep++ {
			for _, f := range sample {
				sink += text.Jaccard(cq.Keywords, f.Keywords)
			}
		}
	}) / float64(20*len(sample))
	words := 0
	lists := make([][]string, len(sample))
	for i, f := range sample {
		lists[i] = dict.Words(f.Keywords)
		words += len(lists[i])
	}
	v["text.intern_ns_per_word"] = 1e9 * shadow("text.intern", func() {
		d := text.NewDict()
		for _, ws := range lists {
			sink += float64(len(d.InternAll(ws)))
		}
	}) / float64(words)
	if sink < 0 {
		panic("unreachable: keeps the measured calls from being optimised away")
	}
}

// shadowWire times the JSON forms of the wire: decoding one request body
// and encoding one response, as serve does per request.
func shadowWire(body []byte, rep *spq.Report) (encodeUs, decodeUs float64) {
	eff := rep.Options()
	resp := spq.QueryResponse{Results: rep.Results, TotalMillis: rep.TotalMillis, Options: &eff}
	encodeUs = 1e3 * timeMedian(200, func() {
		if _, err := json.Marshal(&resp); err != nil {
			panic(err)
		}
	})
	decodeUs = 1e3 * timeMedian(200, func() {
		var req spq.QueryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			panic(err)
		}
	})
	return encodeUs, decodeUs
}
