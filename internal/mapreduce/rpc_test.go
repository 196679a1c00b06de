package mapreduce

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"spq/internal/dfs"
)

// The RPC executor tests run a real master and real worker RPC servers
// over loopback TCP in one process: every task descriptor, shuffle
// reference and counter delta crosses the wire exactly as it would
// between machines, only the transport latency is missing.

var rpcIntCodec = &Codec[int]{
	Encode: func(w *bufio.Writer, v int) error {
		_, err := fmt.Fprintf(w, "%d\n", v)
		return err
	},
	Decode: func(r *bufio.Reader) (int, error) {
		s, err := r.ReadString('\n')
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(strings.TrimSpace(s))
	},
}

// intWidth is the byte width of one record of the int files the RPC tests
// ship: a space-padded decimal ending in a newline.
const intWidth = 8

// rangeInput is the test split kind ("ints"): fixed-width int records of
// one DFS file, per records to a split. A split is a byte range, so it
// ships to a worker as a SplitRef and re-opens there through
// TaskIO.ReadRange — the smallest remotable source.
type rangeInput struct {
	fs   *dfs.FileSystem
	file string
	per  int
}

// Splits implements Source.
func (in rangeInput) Splits() ([]SourceSplit[int], error) {
	n, err := in.fs.Len(in.file)
	if err != nil {
		return nil, err
	}
	var out []SourceSplit[int]
	step := int64(in.per * intWidth)
	for off := int64(0); off < n; off += step {
		out = append(out, rangeSplit{r: in.fs, ref: SplitRef{Kind: "ints", File: in.file, Offset: off, Length: min(step, n-off)}})
	}
	return out, nil
}

// rangeSplit reads the records of one byte range through r: the master's
// DFS in-process, the task's I/O context on a worker.
type rangeSplit struct {
	r interface {
		ReadRange(string, int64, int) ([]byte, error)
	}
	ref SplitRef
}

// SplitRef implements RefSplit.
func (s rangeSplit) SplitRef() (*SplitRef, error) { ref := s.ref; return &ref, nil }

// Each implements SourceSplit. A record that is not an int is malformed
// input: it fails identically on every attempt, so it is Permanent.
func (s rangeSplit) Each(yield func(int) bool) error {
	buf, err := s.r.ReadRange(s.ref.File, s.ref.Offset, int(s.ref.Length))
	if err != nil {
		return err
	}
	for ; len(buf) >= intWidth; buf = buf[intWidth:] {
		v, err := strconv.Atoi(strings.TrimSpace(string(buf[:intWidth])))
		if err != nil {
			return Permanent(fmt.Errorf("%s: bad record %q", s.ref.File, buf[:intWidth]))
		}
		if !yield(v) {
			return nil
		}
	}
	return nil
}

// writeInts stores recs as a fixed-width int file.
func writeInts(t *testing.T, fs *dfs.FileSystem, name string, recs ...string) {
	t.Helper()
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%*s\n", intWidth-1, r)
	}
	if err := fs.Create(name, []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
}

// rpcSumJob is the job both ends of the wire share: ints keyed even/odd,
// summed per group. The orchestrator attaches the source and wire kind;
// the worker-side builder reconstructs the rest from the registered kind.
func rpcSumJob() *Job[int, string, int, string] {
	return &Job[int, string, int, string]{
		Name:        "rpc-sum",
		NumReducers: 2,
		MaxAttempts: 3,
		Map: func(ctx *TaskContext, v int, emit func(string, int)) error {
			if v%2 == 0 {
				emit("even", v)
			} else {
				emit("odd", v)
			}
			return nil
		},
		Partition: func(k string, r int) int {
			if k == "even" {
				return 0
			}
			return 1 % r
		},
		Less:       func(a, b string) bool { return a < b },
		GroupEqual: func(a, b string) bool { return a == b },
		KeyCodec:   stringCodec,
		ValueCodec: rpcIntCodec,
		Reduce: func(ctx *TaskContext, values *Values[string, int], emit func(string)) error {
			sum := 0
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				sum += v
			}
			emit(fmt.Sprintf("%s=%d", values.GroupKey(), sum))
			return nil
		},
	}
}

func init() {
	RegisterJobKind("rpc-test-sum", func(spec []byte, env *WorkerEnv) (RemoteJob, error) {
		job := rpcSumJob()
		return BindRemote(job, func(io *TaskIO, ref *SplitRef) (SourceSplit[int], error) {
			if ref.Kind != "ints" {
				return nil, Permanent(fmt.Errorf("unknown split kind %q", ref.Kind))
			}
			return rangeSplit{r: io, ref: *ref}, nil
		}), nil
	})
}

// rpcHarness is a master-side DFS with an "ints" file of n records plus the
// expected reduce output.
func rpcHarness(t *testing.T, n int) (*dfs.FileSystem, map[string]bool) {
	t.Helper()
	fs := dfs.New(dfs.Config{NumNodes: 4, BlockSize: 128, Replication: 2, Seed: 7})
	recs := make([]string, n)
	even, odd := 0, 0
	for i := range recs {
		recs[i] = strconv.Itoa(i)
		if i%2 == 0 {
			even += i
		} else {
			odd += i
		}
	}
	writeInts(t, fs, "nums", recs...)
	return fs, map[string]bool{
		fmt.Sprintf("even=%d", even): true,
		fmt.Sprintf("odd=%d", odd):   true,
	}
}

// startWorkers brings up n loopback worker nodes and returns their
// addresses.
func startWorkers(t *testing.T, n, slots int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w, err := StartWorker("127.0.0.1:0", slots)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		addrs[i] = w.Addr()
	}
	return addrs
}

func runRPCSum(t *testing.T, fs *dfs.FileSystem, exec *RPCExecutor) *Result[string] {
	t.Helper()
	job := rpcSumJob()
	job.Source = rangeInput{fs: fs, file: "nums", per: 32}
	job.Wire = &WireJob{Kind: "rpc-test-sum"}
	cl := NewCluster(fs, 4, 2)
	cl.Executor = exec
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkRPCSum(t *testing.T, res *Result[string], want map[string]bool) {
	t.Helper()
	if len(res.Output) != len(want) {
		t.Fatalf("output %v, want the keys of %v", res.Output, want)
	}
	for _, o := range res.Output {
		if !want[o] {
			t.Errorf("unexpected output record %q", o)
		}
	}
}

// A job shipped over RPC to two workers must produce exactly the local
// result, meter its tasks per worker, and leave no shuffle intermediates
// behind.
func TestRPCExecutorEndToEnd(t *testing.T) {
	fs, want := rpcHarness(t, 500)
	exec, err := NewRPCExecutor(fs, startWorkers(t, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	res := runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)

	if res.Counters[CounterExecFallbackLocal] != 0 {
		t.Error("remotable job fell back to the local executor")
	}
	checkAbsorbedOnce(t, fs, exec, res)
	if res.Counters[CounterExecRPCBytes] == 0 {
		t.Error("no RPC bytes metered for a remote job")
	}
}

// checkAbsorbedOnce asserts that exactly one result per task was
// absorbed — the per-worker task counters sum to the job's task count —
// and that no shuffle intermediate outlived the job.
func checkAbsorbedOnce(t *testing.T, fs *dfs.FileSystem, exec *RPCExecutor, res *Result[string]) {
	t.Helper()
	tasks := int64(0)
	for _, w := range exec.Workers() {
		tasks += res.Counters[CounterExecTasksPrefix+w]
	}
	if wantTasks := int64(res.Stats.MapTasks + res.Stats.ReduceTasks); tasks != wantTasks {
		t.Errorf("per-worker task counters sum to %d, want %d", tasks, wantTasks)
	}
	for _, name := range fs.List() {
		if strings.HasPrefix(name, "shuffle/") {
			t.Errorf("shuffle intermediate %q not cleaned up", name)
		}
	}
}

// Killing a worker mid-job must not change the result: its tasks are
// re-executed on the surviving worker, the loss is metered, and each task
// is still absorbed exactly once.
func TestRPCExecutorWorkerKill(t *testing.T) {
	fs, want := rpcHarness(t, 500)
	exec, err := NewRPCExecutor(fs, startWorkers(t, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SetKills([]dfs.WorkerKillEvent{{Worker: "worker-1", AfterTasks: 2}})

	res := runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	checkAbsorbedOnce(t, fs, exec, res)

	if res.Counters[CounterExecWorkersLost] == 0 {
		t.Error("worker kill not metered as a loss")
	}
	if res.Counters[CounterExecReexec] == 0 {
		t.Error("no re-executions metered after losing a worker mid-job")
	}
	if res.Counters[CounterExecTasksPrefix+"worker-2"] == 0 {
		t.Error("surviving worker ran no tasks")
	}
}

// Losing every worker must fail the job with a permanent error, not hang
// or return partial results.
func TestRPCExecutorAllWorkersLost(t *testing.T) {
	fs, _ := rpcHarness(t, 100)
	exec, err := NewRPCExecutor(fs, startWorkers(t, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SetKills([]dfs.WorkerKillEvent{{Worker: "worker-1", AfterTasks: 1}})

	job := rpcSumJob()
	job.Source = rangeInput{fs: fs, file: "nums", per: 32}
	job.Wire = &WireJob{Kind: "rpc-test-sum"}
	cl := NewCluster(fs, 4, 2)
	cl.Executor = exec
	if _, err := Run(cl, job); err == nil {
		t.Fatal("job succeeded with its only worker dead")
	}
}

// A job without a wire form runs on the local executor even when an RPC
// executor is installed, and says so in the counters. A job with one runs
// on the workers or fails: with splits that serialize no reference, on a
// cluster without an executor, or beside a fault injector it cannot ship.
func TestRPCExecutorFallbackLocal(t *testing.T) {
	fs, want := rpcHarness(t, 100)
	exec, err := NewRPCExecutor(fs, startWorkers(t, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	recs := make([]int, 100)
	for i := range recs {
		recs[i] = i
	}
	job := rpcSumJob()
	job.Source = NewMemorySource(recs, 4)
	cl := NewCluster(fs, 4, 2)
	cl.Executor = exec
	res, err := Run(cl, job)
	if err != nil {
		t.Fatal(err)
	}
	checkRPCSum(t, res, want)
	if res.Counters[CounterExecFallbackLocal] == 0 {
		t.Error("unwired job not metered as a local fallback")
	}

	for _, c := range []struct {
		name    string
		cluster *Cluster
		source  Source[int]
		inject  bool
		want    string
	}{
		{"memory source on workers", cl, NewMemorySource(recs, 4), false, "split 0 serializes no reference"},
		{"no executor", NewCluster(fs, 4, 2), rangeInput{fs: fs, file: "nums", per: 32}, false, "no remote executor"},
		{"fault injector", cl, rangeInput{fs: fs, file: "nums", per: 32}, true, "a wire form and a fault injector"},
	} {
		job := rpcSumJob()
		job.Source = c.source
		job.Wire = &WireJob{Kind: "rpc-test-sum"}
		if c.inject {
			job.FaultInjector = func(TaskKind, int, int) error { return nil }
		}
		res, err := Run(c.cluster, job)
		if res != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("wired job, %s: result %v, err = %v, want no result and a %q error", c.name, res, err, c.want)
		} else if !c.inject && !isPermanent(err) {
			t.Errorf("wired job, %s: err = %v is not permanent", c.name, err)
		}
	}
}

// NewRPCExecutor with no workers must refuse, not build a dead executor.
func TestRPCExecutorNoWorkers(t *testing.T) {
	fs := dfs.New(dfs.Config{NumNodes: 2, BlockSize: 128, Seed: 1})
	if _, err := NewRPCExecutor(fs, nil); err == nil {
		t.Fatal("expected an error for zero workers")
	}
}
