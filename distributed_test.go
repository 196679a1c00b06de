package spq

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spq/internal/mapreduce"
)

// The distributed tests run the engine against real worker RPC servers on
// loopback TCP: every job is shipped as a task-descriptor stream exactly
// as it would be to worker processes on other machines.

// distWorkers starts n loopback worker nodes and returns their addresses.
func distWorkers(t *testing.T, n, slots int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w, err := mapreduce.StartWorker("127.0.0.1:0", slots)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		addrs[i] = w.Addr()
	}
	return addrs
}

// distEngine builds a sealed engine over the clustered synthetic dataset.
func distEngine(t *testing.T, cfg Config, size int) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	if err := e.LoadSynthetic("clustered", size); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workers) > 0 {
		t.Cleanup(func() { e.Close() })
	}
	return e
}

// distQueries builds a small mix of distinct queries over the reference
// engine's most frequent keywords.
func distQueries(kws []string, n int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{
			K:        8,
			Radius:   0.03,
			Keywords: []string{kws[i%len(kws)], kws[(i+3)%len(kws)]},
		}
	}
	return qs
}

// Conformance: for DFS storage, every algorithm, and 1/2/4 workers, a
// distributed engine must return results byte-identical to the in-process
// reference — and must actually ship the jobs rather than fall back to
// local execution.
func TestDistributedConformance(t *testing.T) {
	algs := []struct {
		name string
		alg  Algorithm
	}{{"pspq", PSPQ}, {"espq-len", ESPQLen}, {"espq-sco", ESPQSco}}
	workerCounts := []int{1, 2, 4}
	if testing.Short() {
		workerCounts = []int{2}
	}
	const size = 1200

	t.Run("columnar", func(t *testing.T) {
		base := Config{Nodes: 4, BlockSize: 8 << 10, MapSlots: 4, ReduceSlots: 2}
		ref := distEngine(t, base, size)
		kws := ref.FrequentKeywords(16)
		if len(kws) < 4 {
			t.Fatalf("only %d frequent keywords", len(kws))
		}
		queries := distQueries(kws, 6)

		var want [][]Result
		for _, a := range algs {
			for qi, q := range queries {
				res, err := ref.Query(q, WithAlgorithm(a.alg))
				if err != nil {
					t.Fatalf("reference %s q%d: %v", a.name, qi, err)
				}
				want = append(want, res)
			}
		}

		for _, wc := range workerCounts {
			t.Run(fmt.Sprintf("workers-%d", wc), func(t *testing.T) {
				cfg := base
				cfg.Workers = distWorkers(t, wc, 2)
				eng := distEngine(t, cfg, size)
				if !eng.Distributed() || len(eng.Workers()) != wc {
					t.Fatalf("Distributed()=%v Workers()=%v, want %d workers",
						eng.Distributed(), eng.Workers(), wc)
				}
				i := 0
				for _, a := range algs {
					for qi, q := range queries {
						rep, err := eng.QueryReport(q, WithAlgorithm(a.alg), WithCache(false))
						if err != nil {
							t.Fatalf("%s q%d: %v", a.name, qi, err)
						}
						if d := diffResults(rep.Results, want[i]); d != "" {
							t.Errorf("%s q%d with %d workers: %s", a.name, qi, wc, d)
						}
						if rep.Counters[CounterExecFallbackLocal] != 0 {
							t.Errorf("%s q%d fell back to local execution", a.name, qi)
						}
						tasks := int64(0)
						for _, w := range eng.Workers() {
							tasks += rep.Counters[CounterExecTasksPrefix+w]
						}
						if tasks == 0 {
							t.Errorf("%s q%d: no per-worker task counters", a.name, qi)
						}
						i++
					}
				}
			})
		}
	})
}

// TestExecutorTaskParity runs one query through both executors: on 2
// loopback workers, whose reduce tasks serve the sealed data objects from
// views the workers build, then in-process with the RPC executor detached
// from the engine and its cluster, so that the plan itself hands the job
// the engine's own view. Both plans select the same blocks (into fewer
// tasks on the workers, one per lane), and both runs run the shared task
// bodies, so what the tasks read, emit, group and merge must agree
// exactly, not just the ranked results — and neither reads a sealed data
// record through the shuffle.
func TestExecutorTaskParity(t *testing.T) {
	parity := []string{
		mapreduce.CounterMapRecordsIn,
		mapreduce.CounterMapRecordsOut,
		mapreduce.CounterReduceGroups,
		mapreduce.CounterReduceValues,
	}
	t.Run("spq3", func(t *testing.T) {
		eng := distEngine(t, Config{
			Nodes: 4, BlockSize: 8 << 10, MapSlots: 4, ReduceSlots: 2,
			Workers: distWorkers(t, 2, 2),
		}, 1200)
		q := distQueries(eng.FrequentKeywords(16), 1)[0]
		for _, alg := range Algorithms() {
			p := eng.planQuery(eng.snap.Load(), q, &queryConfig{alg: alg})
			if p.wire == nil {
				t.Fatalf("%v: the plan does not ship the job", alg)
			}
			remote, err := eng.QueryReport(q, WithAlgorithm(alg), WithCache(false))
			if err != nil {
				t.Fatalf("%v on workers: %v", alg, err)
			}
			if remote.Counters[CounterExecFallbackLocal] != 0 || remote.Counters[CounterViewHit] != 0 {
				t.Fatalf("%v: job did not ship with its block list: %v", alg, remote.Counters)
			}
			exec := eng.exec
			eng.exec, eng.cluster.Executor = nil, nil
			if p := eng.planQuery(eng.snap.Load(), q, &queryConfig{alg: alg}); p.wire != nil {
				t.Fatalf("%v: the plan ships the job of an engine without workers", alg)
			}
			local, err := eng.QueryReport(q, WithAlgorithm(alg), WithCache(false))
			eng.exec, eng.cluster.Executor = exec, exec
			if err != nil {
				t.Fatalf("%v in-process: %v", alg, err)
			}
			if local.Counters[mapreduce.CounterExecRPCBytes] != 0 {
				t.Fatalf("%v: in-process run moved %d RPC bytes", alg, local.Counters[mapreduce.CounterExecRPCBytes])
			}
			if local.Counters[CounterViewHit]+local.Counters[CounterViewMiss] != 1 {
				t.Errorf("%v: the in-process run did not read the engine's view: %v", alg, local.Counters)
			}
			if d := diffResults(remote.Results, local.Results); d != "" {
				t.Errorf("%v: workers vs in-process: %s", alg, d)
			}
			for _, c := range parity {
				if remote.Counters[c] != local.Counters[c] || local.Counters[c] == 0 {
					t.Errorf("%v: %s = %d on workers, %d in-process (want equal and non-zero)",
						alg, c, remote.Counters[c], local.Counters[c])
				}
			}
			if in, want := remote.Counters[mapreduce.CounterMapRecordsIn], selRecords(p.colsFeat); in != want {
				t.Errorf("%v: map.records.in = %d, want the %d selected feature records alone", alg, in, want)
			}
		}
	})
}

// A shipped job runs one map and one reduce task per worker lane, not
// the in-process counts of Config's default 8 map and 8 reduce slots: on
// 2 workers of 1 slot each, every query runs 2 map and 2 reduce tasks,
// one of each per worker, and returns what the in-process engine returns.
// WithReducers still wins.
func TestDistributedJobSizedByWorkerLanes(t *testing.T) {
	base := Config{Nodes: 4, BlockSize: 8 << 10}
	ref := distEngine(t, base, 1200)
	cfg := base
	cfg.Workers = distWorkers(t, 2, 1)
	eng := distEngine(t, cfg, 1200)
	queries := distQueries(ref.FrequentKeywords(16), 3)
	perWorker := func(rep *Report) []int64 {
		var n []int64
		for _, w := range eng.Workers() {
			n = append(n, rep.Counters[CounterExecTasksPrefix+w])
		}
		return n
	}
	for _, alg := range Algorithms() {
		for qi, q := range queries {
			if splits, err := ref.planQuery(ref.snap.Load(), q, &queryConfig{alg: alg}).src.Splits(); err != nil || len(splits) <= 2 {
				t.Fatalf("the in-process plan has %d map splits (%v), want more than the 2 lanes", len(splits), err)
			}
			want, err := ref.Query(q, WithAlgorithm(alg))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.QueryReport(q, WithAlgorithm(alg), WithCache(false))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Results, want) {
				t.Errorf("%v q%d: results differ from the in-process engine: %s", alg, qi, diffResults(rep.Results, want))
			}
			if got := perWorker(rep); !reflect.DeepEqual(got, []int64{2, 2}) {
				t.Errorf("%v q%d: tasks per worker %v, want one map and one reduce task on each", alg, qi, got)
			}
			if rep.Plan.NumReducers != 2 {
				t.Errorf("%v q%d: the plan reports %d reducers, 2 ran", alg, qi, rep.Plan.NumReducers)
			}
			rep, err = eng.QueryReport(q, WithAlgorithm(alg), WithCache(false), WithReducers(3))
			if err != nil {
				t.Fatal(err)
			}
			if got := perWorker(rep); got[0]+got[1] != 2+3 || !reflect.DeepEqual(rep.Results, want) {
				t.Errorf("%v q%d WithReducers(3): tasks per worker %v, want 2 map and 3 reduce tasks; results %s",
					alg, qi, got, diffResults(rep.Results, want))
			}
		}
	}
}

// Every query is planned: a columnar query must ship its pruned block
// selection and still match the in-process engine exactly.
func TestDistributedAutoPlan(t *testing.T) {
	base := Config{Storage: StorageDFSBinary, Nodes: 4, BlockSize: 8 << 10, MapSlots: 4, ReduceSlots: 2}
	ref := distEngine(t, base, 1500)
	kws := ref.FrequentKeywords(8)
	cfg := base
	cfg.Workers = distWorkers(t, 2, 2)
	eng := distEngine(t, cfg, 1500)

	for qi, q := range distQueries(kws, 4) {
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.QueryReport(q, WithCache(false))
		if err != nil {
			t.Fatal(err)
		}
		if d := diffResults(rep.Results, want); d != "" {
			t.Errorf("q%d: %s", qi, d)
		}
		if rep.Counters[CounterExecFallbackLocal] != 0 {
			t.Errorf("q%d fell back to local execution", qi)
		}
	}
}

// Unreachable workers must surface as a query error, not a hang or a
// silent local run.
func TestDistributedAttachError(t *testing.T) {
	eng := NewEngine(Config{Workers: []string{"127.0.0.1:1"}})
	if err := eng.LoadSynthetic("uniform", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query(Query{K: 1, Radius: 0.1, Keywords: []string{"k"}}); err == nil {
		t.Fatal("query succeeded with unreachable workers")
	}
}

// Distributed columnar queries must account the workers' segment reads:
// the spq.seg.bytes.{read,decoded} totals include the per-worker deltas
// that rode the task results home, and the per-worker breakdown
// (suffixed counters) attributes them.
func TestDistributedSegCounters(t *testing.T) {
	base := Config{Storage: StorageDFSBinary, Nodes: 4, BlockSize: 8 << 10, MapSlots: 4, ReduceSlots: 2, QueryCache: -1}
	ref := distEngine(t, base, 1200)
	kws := ref.FrequentKeywords(8)
	cfg := base
	cfg.Workers = distWorkers(t, 2, 2)
	eng := distEngine(t, cfg, 1200)

	q := distQueries(kws, 1)[0]
	rep, err := eng.QueryReport(q, WithCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters[CounterExecFallbackLocal] != 0 {
		t.Fatal("columnar query fell back to local execution")
	}
	if rep.Counters[CounterSegBytesRead] == 0 || rep.Counters[CounterSegBytesDecoded] == 0 {
		t.Fatalf("distributed columnar query lost its segment I/O counters: read=%d decoded=%d",
			rep.Counters[CounterSegBytesRead], rep.Counters[CounterSegBytesDecoded])
	}
	var workerRead, workerDecoded int64
	for _, w := range eng.Workers() {
		workerRead += rep.Counters[CounterSegBytesRead+"."+w]
		workerDecoded += rep.Counters[CounterSegBytesDecoded+"."+w]
	}
	if workerRead == 0 || workerDecoded == 0 {
		t.Errorf("no per-worker segment I/O attribution: read=%d decoded=%d", workerRead, workerDecoded)
	}
	if workerRead > rep.Counters[CounterSegBytesRead] || workerDecoded > rep.Counters[CounterSegBytesDecoded] {
		t.Errorf("per-worker segment I/O (%d/%d) exceeds the query totals (%d/%d)",
			workerRead, workerDecoded, rep.Counters[CounterSegBytesRead], rep.Counters[CounterSegBytesDecoded])
	}
}

// Worker-kill chaos: losing workers mid-workload (seeded fault plan) must
// not change any result of any algorithm — lost tasks are re-executed on
// survivors, byte-identical to the in-process reference, and the losses
// and re-executions are metered. The seed shifts when each of two of the
// three workers dies, so worker-3 always survives.
func TestDistributedWorkerKill(t *testing.T) {
	algs := []struct {
		name string
		alg  Algorithm
	}{{"pspq", PSPQ}, {"espq-len", ESPQLen}, {"espq-sco", ESPQSco}}
	const size = 1200
	base := Config{
		Storage: StorageDFSBinary, Nodes: 4, BlockSize: 8 << 10,
		MapSlots: 4, ReduceSlots: 2,
		QueryCache:  -1,
		MaxAttempts: 5,
	}
	ref := distEngine(t, base, size)
	queries := distQueries(ref.FrequentKeywords(16), 6)
	var want [][]Result
	for _, a := range algs {
		for _, q := range queries {
			res, err := ref.Query(q, WithAlgorithm(a.alg))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, res)
		}
	}

	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			cfg := base
			cfg.Workers = distWorkers(t, 3, 2)
			cfg.Faults = &FaultPlan{
				Seed: seed,
				WorkerKills: []WorkerKillEvent{
					{Worker: "worker-1", AfterTasks: 1 + int(seed%4)},
					{Worker: "worker-2", AfterTasks: 4 + int(seed%7)},
				},
			}
			eng := distEngine(t, cfg, size)

			var reexec, lost int64
			i := 0
			for _, a := range algs {
				for qi, q := range queries {
					rep, err := eng.QueryReport(q, WithAlgorithm(a.alg), WithCache(false))
					if err != nil {
						t.Fatalf("%s q%d under worker kills: %v", a.name, qi, err)
					}
					if d := diffResults(rep.Results, want[i]); d != "" {
						t.Errorf("%s q%d under worker kills: %s", a.name, qi, d)
					}
					reexec += rep.Counters[CounterExecReexec]
					lost += rep.Counters[CounterExecWorkersLost]
					i++
				}
			}
			if lost == 0 {
				t.Error("no worker losses metered despite a kill plan")
			}
			if reexec == 0 {
				t.Error("no re-executions metered despite losing workers mid-workload")
			}
		})
	}
}

// masterGoroutines counts the live goroutines started by a master's
// callback listener: its accept loop and one per accepted connection.
func masterGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by spq/internal/mapreduce.NewMaster")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// Close must release every connection of the engine's master, also the
// callback connections the still-running workers opened to it: after
// Close, no goroutine of any master remains, across repeated engines on
// the same workers.
func TestDistributedCloseReleasesConnections(t *testing.T) {
	before := masterGoroutines()
	addrs := distWorkers(t, 2, 2)
	for i := 0; i < 3; i++ {
		eng := NewEngine(Config{Nodes: 4, BlockSize: 8 << 10, Workers: addrs})
		if err := eng.LoadSynthetic("clustered", 400); err != nil {
			t.Fatal(err)
		}
		if err := eng.Seal(); err != nil {
			t.Fatal(err)
		}
		q := distQueries(eng.FrequentKeywords(4), 1)[0]
		rep, err := eng.QueryReport(q, WithCache(false))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Counters[CounterExecFallbackLocal] != 0 {
			t.Fatal("the query did not ship to the workers")
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		n := masterGoroutines()
		for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = masterGoroutines() {
			time.Sleep(5 * time.Millisecond)
		}
		if n > before {
			t.Fatalf("engine %d: %d master goroutines outlive Close (%d before the test)", i+1, n, before)
		}
	}
}
