package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spq"
	"spq/internal/data"
	"spq/internal/plan"
	"spq/internal/text"
)

// workloads are the five workloads, in BENCHMARK.json's order. Why each
// exists is recorded there and in README.md.
var workloads = []struct {
	name string
	new  func(*bench) workload
}{
	{"scan_cold", newScanCold},
	{"query_hot", newQueryHot},
	{"dist_2w", newDist2w},
	{"serve_mixed", newServeMixed},
	{"ingest_mixed", newIngestMixed},
}

type opKind int

const (
	opQuery opKind = iota
	opAppend
	opCompact // the one append per pass that crosses CompactAfter
)

type opSample struct {
	kind   opKind
	ms     float64
	failed bool
}

// passResult is one replay of a workload's fixed operation list.
type passResult struct {
	samples []opSample
	// wall is the interval throughput is taken over: the whole pass on the
	// closed-loop workloads, the closed-loop burst on serve_mixed.
	wall time.Duration
	// burst holds serve_mixed's closed-loop samples, the ones inside wall;
	// nil means wall covers samples.
	burst  []opSample
	lateMs []float64 // open loop only: how late each arrival was sent
}

func (p *passResult) latencies(kind opKind) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.kind == kind {
			out = append(out, s.ms)
		}
	}
	return out
}

// qps is correct queries per second of the throughput interval.
func (p *passResult) qps() float64 {
	ops := p.burst
	if ops == nil {
		ops = p.samples
	}
	n := 0
	for _, s := range ops {
		if s.kind == opQuery && !s.failed {
			n++
		}
	}
	return float64(n) / p.wall.Seconds()
}

// queries counts every query op of the pass, the divisor of the per-query
// cost metrics.
func (p *passResult) queries() int {
	n := len(p.latencies(opQuery))
	for _, s := range p.burst {
		if s.kind == opQuery {
			n++
		}
	}
	return n
}

type keyedQuery struct {
	key string
	q   spq.Query
}

// workload is one system under test plus its fixed operation list.
type workload interface {
	// setup builds a fresh system from the generated inputs through the
	// public API: everything a user waits for before the first query.
	setup() error
	// warm runs the first n operations untimed.
	warm(n int)
	// pass replays the whole operation list once.
	pass(tr *tracer) *passResult
	teardown()
	engine() *spq.Engine
	workerPids() []int
	queryOpts() []spq.QueryOption
	// rebuildEachPass is true when a pass consumes the system (appends).
	rebuildEachPass() bool
	// verifyQueries are checked in process after the last pass; the first
	// oracleSample of them also against the centralized oracle, which
	// reads the generated objects and their dictionary.
	verifyQueries() []keyedQuery
	oracle() ([]data.Object, *text.Dict)
	numOps() int
	// dropInputs releases the benchmark's own copies of the generated
	// inputs, so that the live heap read after it is the program's.
	dropInputs()
	// layerMetrics adds the per-layer metrics only this workload can read.
	layerMetrics(tr *tracer, v map[string]float64)
}

// system is what every workload holds: the run it belongs to, the engine
// under test and the options its queries run with. Its methods are the
// workload defaults.
type system struct {
	b    *bench
	eng  *spq.Engine
	opts []spq.QueryOption
}

func (s *system) engine() *spq.Engine                      { return s.eng }
func (s *system) queryOpts() []spq.QueryOption             { return s.opts }
func (s *system) workerPids() []int                        { return nil }
func (s *system) rebuildEachPass() bool                    { return false }
func (s *system) layerMetrics(*tracer, map[string]float64) {}

func (s *system) closeEngine() {
	if s.eng != nil {
		s.eng.Close()
		s.eng = nil
	}
}

const oracleSample = 16

// checker counts operations and compares every result with the first
// result seen under the same key: pass against pass, HTTP against in
// process, engine against oracle.
type checker struct {
	mu        sync.Mutex
	ref       map[string]string
	attempted int
	failed    int
	wrong     int // failures that are mismatches, not errors or slow replies
	first     string
}

func (c *checker) fail(wrong bool, format string, args ...any) {
	c.failed++
	if wrong {
		c.wrong++
	}
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// verify records one operation's outcome and reports whether it passed.
func (c *checker) verify(key, fp string, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.fail(false, "%s: %v", key, err)
		return false
	}
	want, seen := c.ref[key]
	if !seen {
		c.ref[key] = fp
		return true
	}
	if want != fp {
		c.fail(true, "%s: result %s differs from the first result %s", key, fp, want)
		return false
	}
	return true
}

// fingerprint renders ranked results exactly: ids in order, scores by bit
// pattern.
func fingerprint[T any](items []T, id func(T) uint64, score func(T) float64) string {
	var sb strings.Builder
	for _, it := range items {
		fmt.Fprintf(&sb, "%d:%016x ", id(it), math.Float64bits(score(it)))
	}
	return sb.String()
}

func resultsFingerprint(rs []spq.Result) string {
	return fingerprint(rs, func(r spq.Result) uint64 { return r.ID }, func(r spq.Result) float64 { return r.Score })
}

// bench is the state of one run shared by its workload.
type bench struct {
	cfg     runConfig
	slots   int // engine MapSlots = ReduceSlots = nproc
	clients int // client goroutines or connections: at most nproc, at most 2
	check   *checker
	rand    *rand.Rand
}

// scaled turns a nominal per-pass operation count into this run's.
func (b *bench) scaled(nominal int) int {
	return max(10, nominal*b.cfg.seconds/nominalSeconds)
}

func (b *bench) sized(objects int) int { return max(2000, objects/b.cfg.sizeDiv) }

func (b *bench) baseConfig() spq.Config {
	return spq.Config{
		Storage:     spq.StorageDFSBinary,
		Nodes:       4,
		MapSlots:    b.slots,
		ReduceSlots: b.slots,
		QueryCache:  -1,
	}
}

// loadEngine is the set-up path of every workload: load through the public
// API and seal.
func loadEngine(cfg spq.Config, in *inputs) (*spq.Engine, error) {
	eng := spq.NewEngine(cfg)
	if err := eng.AddData(in.objs...); err != nil {
		return nil, err
	}
	if err := eng.AddFeature(in.feats...); err != nil {
		return nil, err
	}
	if err := eng.Seal(); err != nil {
		return nil, err
	}
	return eng, nil
}

// closedLoop runs ops 0..n-1 on the given number of clients, each taking
// the next unclaimed op when its previous one completes.
func closedLoop(n, clients int, op func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				op(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// runQuery executes and verifies one in-process query op. With genKeyed
// the result is compared only with results of the same storage generation:
// a query racing an append may legitimately run on either side of it.
func (b *bench) runQuery(tr *tracer, eng *spq.Engine, key string, genKeyed bool, q spq.Query, opts []spq.QueryOption) opSample {
	req := b.cfg.workload + "/" + key
	t0 := time.Now()
	rep, err := tr.query(req, 0, func() (*spq.Report, error) {
		return eng.QueryReportContext(context.Background(), q, opts...)
	})
	d := time.Since(t0)
	fp := ""
	if err == nil {
		fp = resultsFingerprint(rep.Results)
		if genKeyed {
			key = fmt.Sprintf("%s@g%d", key, rep.Delta.Generation)
		}
		if rep.Plan != nil && tr.sampleShadow() {
			shadowPlan(tr, req, eng, q, b.slots)
		}
	}
	return opSample{kind: opQuery, ms: ms(d), failed: !b.check.verify(key, fp, err)}
}

// shadowPlan times the planner alone on the query just traced. It runs
// after the query returned, so the query's own latency does not include it,
// but the client's next op waits for it, which is why only a sample of the
// traced queries is shadowed.
func shadowPlan(tr *tracer, req string, eng *spq.Engine, q spq.Query, slots int) {
	man := eng.Manifest()
	t0 := time.Now()
	plan.PlanGenerations(man, nil, nil, plan.Input{Radius: q.Radius, Keywords: q.Keywords, ReduceSlots: slots})
	tr.add("plan.plan", req, 0, t0, time.Since(t0), true)
}

// engineLoad is the closed-loop in-process query workload behind
// scan_cold, query_hot and dist_2w: a sealed engine, a fixed query list
// and the options every query runs with.
type engineLoad struct {
	system
	in       *inputs
	cfg      spq.Config
	nWorkers int
	queries  []spq.Query

	ws *workers
}

func newScanCold(b *bench) workload {
	in := generate("clustered", b.sized(scanColdObjects), b.cfg.seed, 0)
	cfg := b.baseConfig()
	cfg.SegmentCache = 256 << 10
	return &engineLoad{system: system{b: b}, in: in, cfg: cfg, queries: in.scanQueries(b.rand, b.scaled(scanColdQueries))}
}

func newQueryHot(b *bench) workload {
	in := generate("flickr", b.sized(queryHotObjects), b.cfg.seed, 0)
	return &engineLoad{system: system{b: b, opts: []spq.QueryOption{spq.WithAutoPlan()}}, in: in, cfg: b.baseConfig(),
		queries: in.hotQueries(b.rand, b.scaled(queryHotQueries))}
}

func newDist2w(b *bench) workload {
	in := generate("clustered", b.sized(dist2wObjects), b.cfg.seed, 0)
	cfg := b.baseConfig()
	cfg.BlockSize = 64 << 10
	return &engineLoad{system: system{b: b, opts: []spq.QueryOption{spq.WithAutoPlan()}}, in: in, cfg: cfg, nWorkers: 2,
		queries: in.scanQueries(b.rand, b.scaled(dist2wQueries))}
}

func (w *engineLoad) setup() error {
	cfg := w.cfg
	if w.nWorkers > 0 {
		ws, err := spawnWorkers(w.nWorkers)
		if err != nil {
			return err
		}
		w.ws = ws
		cfg.Workers = ws.addrs
	}
	eng, err := loadEngine(cfg, w.in)
	w.eng = eng
	return err
}

func (w *engineLoad) teardown() {
	w.closeEngine()
	if w.ws != nil {
		w.ws.stop()
		w.ws = nil
	}
}

func (w *engineLoad) run(tr *tracer, n int) *passResult {
	res := &passResult{samples: make([]opSample, n)}
	res.wall = closedLoop(n, w.b.clients, func(i int) {
		res.samples[i] = w.b.runQuery(tr, w.eng, fmt.Sprintf("q%d", i), false, w.queries[i], w.opts)
	})
	return res
}

func (w *engineLoad) warm(n int)                  { w.run(nil, n) }
func (w *engineLoad) pass(tr *tracer) *passResult { return w.run(tr, len(w.queries)) }
func (w *engineLoad) dropInputs()                 { w.in = nil }
func (w *engineLoad) numOps() int                 { return len(w.queries) }

func (w *engineLoad) oracle() ([]data.Object, *text.Dict) { return w.in.ds.Objects(), w.in.ds.Dict }

func (w *engineLoad) workerPids() []int {
	if w.ws == nil {
		return nil
	}
	return w.ws.pids()
}

func (w *engineLoad) verifyQueries() []keyedQuery {
	return sampleQueries(w.b.rand, "q", w.queries, oracleSample)
}

// sampleQueries picks n of the queries, keyed as the passes key them.
func sampleQueries(r *rand.Rand, prefix string, qs []spq.Query, n int) []keyedQuery {
	n = min(n, len(qs))
	out := make([]keyedQuery, 0, n)
	for _, i := range r.Perm(len(qs))[:n] {
		out = append(out, keyedQuery{key: fmt.Sprintf("%s%d", prefix, i), q: qs[i]})
	}
	return out
}
