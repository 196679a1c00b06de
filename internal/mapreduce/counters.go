package mapreduce

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Well-known counter names maintained by the engine itself. Jobs may define
// additional counters freely via TaskContext.Counter.
const (
	CounterMapRecordsIn   = "map.records.in"
	CounterMapRecordsOut  = "map.records.out"
	CounterReduceGroups   = "reduce.groups"
	CounterReduceValues   = "reduce.values.total"
	CounterValuesConsumed = "reduce.values.consumed"
	CounterOutputRecords  = "output.records"
	CounterShuffleBytes   = "shuffle.bytes"
	CounterShuffleChunks  = "shuffle.chunks"
	CounterTaskRetries    = "tasks.retries"
)

// Retry counters (spq.retry.*): how often task attempts were re-executed
// and how long the phases slept in capped exponential backoff between
// attempts. CounterTaskRetries above counts every failed attempt (legacy
// name); the spq.retry.* pair splits re-executions by phase.
const (
	CounterRetryMap           = "spq.retry.map"
	CounterRetryReduce        = "spq.retry.reduce"
	CounterRetryBackoffMicros = "spq.retry.backoff_us"
)

// Admission-control counters (see admission.go). They describe how this
// job's tasks fared against the cluster-shared slot pools: how many task
// admissions happened, how many had to queue behind other jobs, the total
// time spent waiting, and the deepest queue any of its tasks observed.
const (
	CounterSchedAdmitted      = "spq.sched.admitted"
	CounterSchedQueued        = "spq.sched.queued"
	CounterSchedWaitMicros    = "spq.sched.wait_us"
	CounterSchedMaxQueueDepth = "spq.sched.queue.depth.max"
)

// Executor counters (spq.exec.*): where a job's tasks ran. Per-worker
// task counts use the CounterExecTasksPrefix + worker name; re-executions
// count attempts re-dispatched after a worker was lost mid-job; RPC bytes
// meter the payloads a remote task moved across the master boundary
// (input fetches, shuffle writes and reads). The fallback counts jobs
// without a wire form that ran in-process on a cluster with a remote
// executor. Workers lost counts every
// live→dead transition exactly once: in the job whose dispatch saw it, or
// — when a heartbeat or the end-of-job cleanup saw it first — in the next
// job that dispatches a task.
const (
	CounterExecTasksPrefix   = "spq.exec.tasks."
	CounterExecReexec        = "spq.exec.reexec"
	CounterExecRPCBytes      = "spq.exec.rpc.bytes"
	CounterExecWorkersLost   = "spq.exec.workers.lost"
	CounterExecFallbackLocal = "spq.exec.fallback.local"
)

// CounterExecWorkersQuarantined counts workers quarantined after
// consecutive call timeouts: a subset of workers.lost (slow-loss, as
// opposed to transport death).
const CounterExecWorkersQuarantined = "spq.exec.workers.quarantined"

// Counters is a concurrency-safe registry of named int64 counters,
// mirroring Hadoop job counters.
type Counters struct {
	mu sync.Mutex
	m  map[string]*int64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*int64)}
}

// cell returns the addressable cell for name, creating it if needed.
func (c *Counters) cell(name string) *int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[name]
	if !ok {
		p = new(int64)
		c.m[name] = p
	}
	return p
}

// Add atomically adds delta to the named counter.
func (c *Counters) Add(name string, delta int64) {
	atomic.AddInt64(c.cell(name), delta)
}

// Max raises the named counter to at least v. Used for high-watermark
// counters (for example the deepest admission queue a job observed), which
// Add semantics would overstate.
func (c *Counters) Max(name string, v int64) {
	p := c.cell(name)
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// Get returns the current value of the named counter (0 if never touched).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	p, ok := c.m[name]
	c.mu.Unlock()
	if !ok {
		return 0
	}
	return atomic.LoadInt64(p)
}

// reset zeroes every cell while keeping the cells (and any pointers held
// to them) valid, so a task slot can reuse one attempt-local registry
// across task attempts instead of allocating a fresh one per task.
func (c *Counters) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.m {
		atomic.StoreInt64(p, 0)
	}
}

// Merge folds src into c without materializing an intermediate snapshot
// map. Both registries are locked for the duration; the engine only ever
// merges attempt-local counters into the job-global registry, so the lock
// order (src, then c) is acyclic.
func (c *Counters) Merge(src *Counters) {
	src.mu.Lock()
	defer src.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, p := range src.m {
		q, ok := c.m[name]
		if !ok {
			q = new(int64)
			c.m[name] = q
		}
		atomic.AddInt64(q, atomic.LoadInt64(p))
	}
}

// AddMap merges serialized counter deltas — a remote TaskResult's
// Counters snapshot — into the registry. A nil map is a no-op.
func (c *Counters) AddMap(m map[string]int64) {
	if len(m) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, v := range m {
		q, ok := c.m[name]
		if !ok {
			q = new(int64)
			c.m[name] = q
		}
		atomic.AddInt64(q, v)
	}
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, p := range c.m {
		out[k] = atomic.LoadInt64(p)
	}
	return out
}

// Names returns the sorted counter names.
func (c *Counters) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.m))
	for k := range c.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TaskContext is passed to Map and Reduce invocations. It identifies the
// running task and gives access to the job's counters.
type TaskContext struct {
	Kind     TaskKind
	TaskID   int
	Attempt  int
	NodeName string

	// State is the reduce task's own state across its groups: nil when
	// the attempt's first group starts, set and read by the job's Reduce
	// and Cleanup, and dropped when the attempt ends, whatever its
	// outcome. A lane reuses one context for all its attempts; State never
	// carries from one to the next.
	State any

	counters *Counters

	// Engine counter cells resolved once per attempt, so the per-record
	// bookkeeping on the hot paths is a single atomic add instead of a
	// mutex-guarded map lookup.
	recIn, recOut, consumed *int64

	// cache memoizes Counter's cell lookups. A context belongs to one
	// task attempt running on one goroutine, so the cache needs no lock;
	// the cells it points at are still updated atomically.
	cache map[string]*int64
}

// newTaskContext builds the context for one task attempt, pre-resolving
// the engine counter cells the attempt's hot path increments per record.
func newTaskContext(kind TaskKind, task, attempt int, node string, counters *Counters) *TaskContext {
	t := &TaskContext{Kind: kind, TaskID: task, Attempt: attempt, NodeName: node, counters: counters}
	if kind == MapTask {
		t.recIn = counters.cell(CounterMapRecordsIn)
		t.recOut = counters.cell(CounterMapRecordsOut)
	} else {
		t.consumed = counters.cell(CounterValuesConsumed)
	}
	return t
}

// retarget repoints the context at another attempt executed by the same
// slot. The counters registry is unchanged, so every resolved cell and the
// Counter cache stay valid.
func (t *TaskContext) retarget(task, attempt int) {
	t.TaskID = task
	t.Attempt = attempt
}

// Counter adds delta to the named job counter. Map and Reduce call this
// per record, so the cell resolution is memoized per context.
func (t *TaskContext) Counter(name string, delta int64) {
	p, ok := t.cache[name]
	if !ok {
		p = t.counters.cell(name)
		if t.cache == nil {
			t.cache = make(map[string]*int64, 8)
		}
		t.cache[name] = p
	}
	atomic.AddInt64(p, delta)
}
