package mapreduce

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// TaskDesc is a self-describing task descriptor: everything an executor
// needs to run one attempt of one task, with no reference to in-process
// state. Local execution reads only the scheduling fields; remote
// executors additionally ship the wire fields (job spec, split reference,
// shuffle inputs) to the worker, which reconstructs the task from them.
type TaskDesc struct {
	// Job is the job name; JobID uniquely identifies this execution of it
	// (two runs of the same job must not share shuffle files).
	Job   string
	JobID string
	Kind  TaskKind
	// Task is the task index within its phase; Attempt counts executions
	// of this task starting at 1.
	Task    int
	Attempt int
	// Lane is the executor lane the orchestrator assigned the task to (a
	// slot for the local executor, a worker slot for the RPC executor).
	Lane int
	// NumMaps and NumReducers give the task its phase geometry.
	NumMaps     int
	NumReducers int

	// Wire fields, set only when the job carries a WireJob:

	// JobKind and JobSpec let a worker reconstruct the job through the
	// job-kind registry (see RegisterJobKind).
	JobKind string
	JobSpec []byte
	// Split references the map task's input (nil for reduce tasks).
	Split *SplitRef
	// Shuffle lists the sorted intermediate runs a reduce task merges
	// (nil for map tasks).
	Shuffle []ShuffleRef
}

// SplitRef is a serializable, master-authoritative reference to one unit
// of map input. The orchestrator enumerates splits exactly once and ships
// references, so a worker can never re-derive a different shard layout
// (shard-count invariance by construction).
type SplitRef struct {
	// Kind discriminates the split type: "group" for a coalesced split,
	// otherwise a kind the job's worker-side opener knows ("col" for SPQ
	// column blocks).
	Kind   string
	File   string
	Offset int64
	Length int64
	// Extra carries kind-specific payload (e.g. the column block index and
	// zone map of a columnar split), encoded by the producing source.
	Extra []byte
	// Group holds the member references of a coalesced split.
	Group []SplitRef
}

// RefSplit is optionally implemented by splits that can serialize a
// self-describing reference from which a worker re-opens the same records.
// Splits without it (in-memory sources) keep their jobs on the local
// executor.
type RefSplit interface {
	SplitRef() (*SplitRef, error)
}

// ShuffleRef names one sorted intermediate run in the DFS: the output of
// one map task for one reduce partition.
type ShuffleRef struct {
	// File is the DFS path of the run.
	File string
	// Part is the reduce partition the run belongs to.
	Part int
	// Records and Bytes describe the run's payload.
	Records int
	Bytes   int64
}

// TaskResult is the outcome of one successful task attempt. Executors
// running tasks out of process return the attempt's side effects in
// serialized form: counter deltas, shuffle run references (map) and the
// encoded reduce output. The local executor publishes its side effects
// directly through the job binding and returns only the attribution.
type TaskResult struct {
	// Worker names the slot or worker process that executed the attempt.
	Worker string
	// Counters holds the attempt's counter deltas (nil when the executor
	// merged them in-process).
	Counters map[string]int64
	// Shuffle lists the runs a map task wrote, one per non-empty reduce
	// partition.
	Shuffle []ShuffleRef
	// Output is the gob-encoded output record slice of a reduce task.
	Output []byte
}

// Executor runs task attempts somewhere: on the calling process's slot
// pools (LocalExecutor) or on remote worker processes over RPC
// (RPCExecutor). The generic Run loop is orchestration-only — it assigns
// tasks to lanes, dispatches descriptors, gathers results and drives
// retries — and never knows where an attempt executes.
type Executor interface {
	// Name identifies the executor in counters and errors.
	Name() string
	// Lanes is the number of concurrent dispatch lanes for the task kind;
	// the orchestrator runs one dispatch goroutine per lane.
	Lanes(kind TaskKind) int
	// LaneHost names the node a lane's tasks execute on, for failure
	// attribution (TaskError.Worker) and TaskContext.NodeName.
	LaneHost(kind TaskKind, lane int) string
	// RunMapTask and RunReduceTask execute one attempt of one task and
	// return its result. An attempt that fails returns a non-nil error;
	// the orchestrator classifies it (permanent vs transient) and drives
	// the retry. Returning errTaskAborted drops the task silently (the job
	// already failed elsewhere).
	RunMapTask(b *Binding, d *TaskDesc) (*TaskResult, error)
	RunReduceTask(b *Binding, d *TaskDesc) (*TaskResult, error)
}

// errTaskAborted is returned by executors for attempts cancelled because
// the job already failed; the orchestrator discards the task without
// recording an error.
var errTaskAborted = errors.New("mapreduce: task aborted: job already failed")

// Binding is the executor-facing handle of one running job. It erases the
// job's type parameters: the typed Run loop installs closures for local
// in-process execution and output decoding, and executors call back
// through them. The wire fields double as the serializable task boundary
// for remote executors.
type Binding struct {
	job      string
	jobID    string
	counters *Counters
	// ctx is the job's cancellation context (RunContext); nil bindings —
	// worker-side reconstructions — read it as context.Background().
	ctx context.Context
	// failed flips once any task has failed; executors stop admitting
	// queued attempts and the orchestrator stops dispatching.
	failed atomic.Bool

	// Local execution hooks (installed by Run; typed underneath).
	localMap    func(lane, task, attempt int, host string) error
	localReduce func(lane, task, attempt int, host string) error

	// Wire form: non-nil kind/spec when the job is remotable.
	wireKind  string
	wireSpec  []byte
	splitRefs []*SplitRef

	// shuffle gathers the run references returned by remote map tasks,
	// keyed by reduce partition; mapAttempts holds the (task, attempt)
	// pairs of every map attempt dispatched to a worker, whatever its
	// outcome.
	mu          sync.Mutex
	shuffle     [][]ShuffleRef
	mapAttempts [][2]int
}

// Job returns the bound job's name.
func (b *Binding) Job() string { return b.job }

// JobID returns the unique id of this job execution.
func (b *Binding) JobID() string { return b.jobID }

// Counters exposes the job-global counter registry for executors to meter
// into (scheduling stats, per-worker task counts, re-executions).
func (b *Binding) Counters() *Counters { return b.counters }

// Failed reports whether some task of the job has already failed.
func (b *Binding) Failed() bool { return b.failed.Load() }

// Context returns the job's cancellation context. Executors consult it
// before spending resources on an attempt: a canceled job's queued tasks
// are dropped instead of dispatched.
func (b *Binding) Context() context.Context {
	if b.ctx == nil {
		return context.Background()
	}
	return b.ctx
}

// addShuffle records the shuffle runs written by a successful map attempt.
func (b *Binding) addShuffle(refs []ShuffleRef) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ref := range refs {
		if ref.Part >= 0 && ref.Part < len(b.shuffle) {
			b.shuffle[ref.Part] = append(b.shuffle[ref.Part], ref)
		}
	}
}

// noteMapAttempt records a map attempt dispatched to a worker.
func (b *Binding) noteMapAttempt(task, attempt int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mapAttempts = append(b.mapAttempts, [2]int{task, attempt})
}

// shuffleFiles names every run the job's dispatched map attempts could
// have written: one per attempt and partition, for cleanup. A failed
// attempt may have stored some of its runs, so the names come from the
// attempts, not from the runs the job absorbed.
func (b *Binding) shuffleFiles() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.mapAttempts)*len(b.shuffle))
	for _, a := range b.mapAttempts {
		for part := range b.shuffle {
			out = append(out, shuffleFile(b.jobID, a[0], a[1], part))
		}
	}
	return out
}

// shuffleFor returns partition part's shuffle runs in deterministic
// (map task, attempt) file-name order — gathering order depends on task
// timing, and reduce must not.
func (b *Binding) shuffleFor(part int) []ShuffleRef {
	b.mu.Lock()
	defer b.mu.Unlock()
	if part < 0 || part >= len(b.shuffle) {
		return nil
	}
	refs := append([]ShuffleRef(nil), b.shuffle[part]...)
	sortShuffleRefs(refs)
	return refs
}

// LocalExecutor runs task attempts on the calling process: the cluster's
// admission-controlled slot pools bound concurrency, and the attempt
// bodies are the typed closures the Run loop installed on the binding.
// It is the default executor and preserves the pre-executor behaviour of
// the framework exactly.
type LocalExecutor struct {
	c *Cluster
}

// NewLocalExecutor returns the in-process executor of the cluster.
func NewLocalExecutor(c *Cluster) *LocalExecutor { return &LocalExecutor{c: c} }

// Name implements Executor.
func (x *LocalExecutor) Name() string { return "local" }

// Lanes implements Executor: one lane per configured slot.
func (x *LocalExecutor) Lanes(kind TaskKind) int {
	if kind == MapTask {
		return x.c.mapSlots()
	}
	return x.c.reduceSlots()
}

// LaneHost implements Executor: slots are named round-robin after the DFS
// DataNodes.
func (x *LocalExecutor) LaneHost(kind TaskKind, lane int) string {
	return x.c.slotNode(lane)
}

// RunMapTask implements Executor.
func (x *LocalExecutor) RunMapTask(b *Binding, d *TaskDesc) (*TaskResult, error) {
	pool, _ := x.c.slotPools()
	return x.run(b, d, pool, b.localMap)
}

// RunReduceTask implements Executor.
func (x *LocalExecutor) RunReduceTask(b *Binding, d *TaskDesc) (*TaskResult, error) {
	_, pool := x.c.slotPools()
	return x.run(b, d, pool, b.localReduce)
}

// run admits the attempt through the shared slot pool and executes the
// bound closure on the lane's slot.
func (x *LocalExecutor) run(b *Binding, d *TaskDesc, pool *slotPool, fn func(lane, task, attempt int, host string) error) (*TaskResult, error) {
	waited, depth, err := pool.acquire(b.Context())
	if err != nil {
		// Canceled while queued for admission: no slot is held and the
		// job is being torn down; surface the context error so the
		// orchestrator drops the task.
		return nil, err
	}
	defer pool.release()
	var sched schedStats
	sched.observe(waited, depth)
	sched.flush(b.counters)
	if b.failed.Load() {
		// The job failed while this attempt queued for admission; don't
		// spend a shared slot on work whose output is discarded.
		return nil, errTaskAborted
	}
	host := x.c.slotNode(d.Lane)
	res := &TaskResult{Worker: host}
	if err := fn(d.Lane, d.Task, d.Attempt, host); err != nil {
		return res, err
	}
	return res, nil
}
