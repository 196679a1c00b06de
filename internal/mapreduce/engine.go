package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"spq/internal/dfs"
)

// Cluster describes the execution resources of a simulated cluster: the
// distributed file system whose nodes host the data, and the number of
// concurrent map and reduce slots. With fewer slots than tasks, tasks run
// in waves, exactly like an overcommitted Hadoop cluster (see the footnote
// in Section 6.3 of the paper).
type Cluster struct {
	// FS is the storage layer. Its DataNode names label the local
	// executor's slots in task attribution; nil names them slot-N.
	FS *dfs.FileSystem
	// MapSlots and ReduceSlots bound task concurrency (default 1 each).
	// The bound holds across ALL jobs running on this cluster: concurrent
	// jobs draw their tasks from one shared admission-controlled slot pool
	// per phase (see admission.go) instead of each assuming it owns every
	// slot. Pool capacity is frozen at the first job; mutate the slot
	// counts before running anything.
	MapSlots    int
	ReduceSlots int

	// Executor, when set, runs the cluster's tasks somewhere other than
	// the calling process (see RPCExecutor). Nil selects the in-process
	// LocalExecutor. Jobs the executor cannot ship — no wire form, or
	// splits without serializable references — fall back to the local
	// executor transparently (metered as spq.exec.fallback.local).
	Executor Executor

	poolsOnce           sync.Once
	mapPool, reducePool *slotPool

	localOnce sync.Once
	local     *LocalExecutor
}

// NewCluster returns a cluster with slots spread across the nodes of fs.
func NewCluster(fs *dfs.FileSystem, mapSlots, reduceSlots int) *Cluster {
	return &Cluster{FS: fs, MapSlots: mapSlots, ReduceSlots: reduceSlots}
}

func (c *Cluster) mapSlots() int {
	if c.MapSlots <= 0 {
		return 1
	}
	return c.MapSlots
}

func (c *Cluster) reduceSlots() int {
	if c.ReduceSlots <= 0 {
		return 1
	}
	return c.ReduceSlots
}

// slotNode maps a slot index to the DataNode hosting it (round-robin).
func (c *Cluster) slotNode(slot int) string {
	if c.FS == nil || c.FS.NumNodes() == 0 {
		return fmt.Sprintf("slot-%d", slot)
	}
	return c.FS.NodeName(slot % c.FS.NumNodes())
}

// localExecutor returns the cluster's in-process executor (created once).
func (c *Cluster) localExecutor() *LocalExecutor {
	c.localOnce.Do(func() { c.local = NewLocalExecutor(c) })
	return c.local
}

// executor returns the executor jobs dispatch through.
func (c *Cluster) executor() Executor {
	if c.Executor != nil {
		return c.Executor
	}
	return c.localExecutor()
}

// Stats summarizes one job execution.
type Stats struct {
	Job            string
	MapTasks       int
	ReduceTasks    int
	Duration       time.Duration
	MapDuration    time.Duration
	ReduceDuration time.Duration
}

// Result is the outcome of a job: the concatenated reduce outputs (in
// reduce-task order), the job counters and timing statistics.
type Result[O any] struct {
	Output   []O
	Counters map[string]int64
	Stats    Stats
}

// partitionData accumulates the intermediate records routed to one reduce
// task. As in Hadoop's map-side sort-and-merge shuffle, order is
// established where the data is produced: every map task sorts its
// per-partition buffers before publishing, so a partition holds sorted
// chunks (at least one per publishing map task), and the owning reduce
// task k-way-merges them. Nothing is ever sorted serially between the
// phases.
type partitionData[K, V any] struct {
	mu     sync.Mutex
	chunks [][]Pair[K, V]
}

// jobSeq numbers job executions within this process; the id scopes the
// job's shuffle files in the DFS so two executions never collide.
var jobSeq atomic.Int64

// Run executes the job on the cluster and returns its result. It is
// RunContext with a background context: the job runs to completion or
// failure and can never be canceled from outside.
func Run[I, K, V, O any](c *Cluster, job *Job[I, K, V, O]) (*Result[O], error) {
	return RunContext(context.Background(), c, job)
}

// RunContext executes the job on the cluster and returns its result. It
// is the entry point of the framework.
//
// RunContext is orchestration only: it enumerates the input splits exactly
// once, assigns tasks to executor lanes, dispatches self-describing task
// descriptors, gathers results and drives the per-task retry loop — but
// has no knowledge of where an attempt executes. The executor decides
// that: in-process on the cluster's slot pools (the default), or on
// remote worker processes over RPC when the cluster carries an Executor
// and the job is remotable (it has a WireJob and every split serializes
// a SplitRef).
//
// Canceling ctx stops the job promptly: no further task attempts start
// (tasks queued for slot admission leave the queue without consuming a
// slot), running local map and reduce tasks notice the cancellation at
// record granularity and abort, retry backoffs are cut short, and
// RunContext returns ctx.Err() (wrapped) instead of a task error. Task
// attempts already dispatched to a remote worker run to completion there
// — their results are discarded — so cancellation bounds new work, not
// in-flight RPCs.
func RunContext[I, K, V, O any](ctx context.Context, c *Cluster, job *Job[I, K, V, O]) (*Result[O], error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}
	start := time.Now()
	counters := NewCounters()
	r := job.NumReducers

	splits, err := job.Source.Splits()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, err)
	}

	b := &Binding{
		job:      job.Name,
		jobID:    fmt.Sprintf("j%06d", jobSeq.Add(1)),
		counters: counters,
		ctx:      ctx,
		shuffle:  make([][]ShuffleRef, r),
	}

	// Executor selection: a remote-capable executor takes the job only
	// when it can be shipped whole — a registered wire form plus a
	// serializable reference for every split. Everything else (in-memory
	// sources, fault-injector hooks, custom partitioners) stays local.
	exec := c.executor()
	remote := false
	if _, isLocal := exec.(*LocalExecutor); !isLocal {
		if job.Wire != nil && job.FaultInjector == nil {
			if refs, ok := collectSplitRefs(splits); ok {
				b.wireKind, b.wireSpec, b.splitRefs = job.Wire.Kind, job.Wire.Spec, refs
				remote = true
			}
		}
		if !remote {
			counters.Add(CounterExecFallbackLocal, 1)
			exec = c.localExecutor()
		} else if cl, ok := exec.(shuffleCleaner); ok {
			// Shuffle intermediates of remote tasks live in the DFS; they
			// are removed when the job finishes, success or not.
			defer cl.CleanupShuffle(b)
		}
	}

	// Local execution state: shared shuffle partitions plus the typed
	// attempt closures the LocalExecutor calls back through.
	var parts []*partitionData[K, V]
	outputs := make([][]O, r)
	if !remote {
		parts = make([]*partitionData[K, V], r)
		for i := range parts {
			parts[i] = &partitionData[K, V]{}
		}
		mapStates := make([]slotState, exec.Lanes(MapTask))
		b.localMap = func(lane, task, attempt int, host string) error {
			lc, tctx := mapStates[lane].get(MapTask, host)
			lc.reset()
			tctx.rebind(task, attempt)
			return runMapAttempt(ctx, job, splits[task], parts, counters, lc, tctx, task, attempt)
		}
		reduceStates := make([]slotState, exec.Lanes(ReduceTask))
		b.localReduce = func(lane, task, attempt int, host string) error {
			lc, tctx := reduceStates[lane].get(ReduceTask, host)
			lc.reset()
			tctx.rebind(task, attempt)
			out, rerr := runReduceAttempt(ctx, job, parts[task], counters, lc, tctx, task, attempt)
			if rerr != nil {
				return rerr
			}
			outputs[task] = out
			return nil
		}
	}

	attempts := maxAttempts(job)
	mkDesc := func(kind TaskKind, task, attempt, lane int) *TaskDesc {
		d := &TaskDesc{
			Job: job.Name, JobID: b.jobID, Kind: kind,
			Task: task, Attempt: attempt, Lane: lane,
			NumMaps: len(splits), NumReducers: r,
		}
		if remote {
			d.JobKind, d.JobSpec = b.wireKind, b.wireSpec
			if kind == MapTask {
				d.Split = b.splitRefs[task]
			} else {
				d.Shuffle = b.shuffleFor(task)
			}
		}
		return d
	}

	mapStart := time.Now()
	errs := runPhase(exec, b, MapTask, roundRobin(len(splits), exec.Lanes(MapTask)), attempts, job.RetryBackoff, CounterRetryMap,
		func(task, attempt, lane int) *TaskDesc { return mkDesc(MapTask, task, attempt, lane) },
		exec.RunMapTask,
		func(task int, res *TaskResult) error {
			counters.AddMap(res.Counters)
			b.addShuffle(res.Shuffle)
			return nil
		})
	if cerr := ctx.Err(); cerr != nil {
		// Cancellation outranks task errors: a canceled job's attempts may
		// fail for any number of secondary reasons, but the caller asked
		// for exactly this outcome and gets the context error back.
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, cerr)
	}
	if len(errs) > 0 {
		return nil, newJobError(job.Name, MapTask, errs)
	}
	mapDur := time.Since(mapStart)

	reduceStart := time.Now()
	errs = runPhase(exec, b, ReduceTask, roundRobin(r, exec.Lanes(ReduceTask)), attempts, job.RetryBackoff, CounterRetryReduce,
		func(task, attempt, lane int) *TaskDesc { return mkDesc(ReduceTask, task, attempt, lane) },
		exec.RunReduceTask,
		func(task int, res *TaskResult) error {
			counters.AddMap(res.Counters)
			if !remote {
				return nil
			}
			out, derr := decodeOutput[O](res.Output)
			if derr != nil {
				return fmt.Errorf("mapreduce: job %q: reduce task %d output: %w", job.Name, task, derr)
			}
			outputs[task] = out
			return nil
		})
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("mapreduce: job %q: %w", job.Name, cerr)
	}
	if len(errs) > 0 {
		return nil, newJobError(job.Name, ReduceTask, errs)
	}
	reduceDur := time.Since(reduceStart)

	var out []O
	for _, o := range outputs {
		out = append(out, o...)
	}
	return &Result[O]{
		Output:   out,
		Counters: counters.Snapshot(),
		Stats: Stats{
			Job:            job.Name,
			MapTasks:       len(splits),
			ReduceTasks:    r,
			Duration:       time.Since(start),
			MapDuration:    mapDur,
			ReduceDuration: reduceDur,
		},
	}, nil
}

// collectSplitRefs serializes a reference for every split; ok is false
// when any split cannot be referenced (the job then runs locally).
func collectSplitRefs[I any](splits []SourceSplit[I]) ([]*SplitRef, bool) {
	refs := make([]*SplitRef, len(splits))
	for i, s := range splits {
		rs, ok := s.(RefSplit)
		if !ok {
			return nil, false
		}
		ref, err := rs.SplitRef()
		if err != nil || ref == nil {
			return nil, false
		}
		refs[i] = ref
	}
	return refs, true
}

// runPhase executes every task of one phase through the executor, one
// dispatch goroutine per lane; a lane stops dispatching new tasks once
// any task has failed terminally.
//
// Every task failure is collected (not just the first): concurrently
// running tasks finish their attempts even after another lane fails, and
// their failures all land in the returned slice so the caller can report
// one aggregated error.
func runPhase(exec Executor, b *Binding, kind TaskKind, perLane [][]int, budget int, backoffBase time.Duration, retryCounter string,
	mkDesc func(task, attempt, lane int) *TaskDesc,
	call func(*Binding, *TaskDesc) (*TaskResult, error),
	onResult func(task int, res *TaskResult) error) []*TaskError {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []*TaskError
	)
	for lane := range perLane {
		if len(perLane[lane]) == 0 {
			continue
		}
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for _, task := range perLane[lane] {
				if b.failed.Load() || b.Context().Err() != nil {
					return
				}
				te := runTaskAttempts(exec, b, kind, lane, task, budget, backoffBase, retryCounter, mkDesc, call, onResult)
				if te != nil {
					b.failed.Store(true)
					mu.Lock()
					errs = append(errs, te)
					mu.Unlock()
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	return errs
}

// runTaskAttempts drives one task through its retry budget: dispatch an
// attempt descriptor, classify the failure (permanent errors fast-fail,
// transient ones back off and retry), and attribute the terminal error to
// the worker that executed the failing attempt.
func runTaskAttempts(exec Executor, b *Binding, kind TaskKind, lane, task, budget int, backoffBase time.Duration, retryCounter string,
	mkDesc func(task, attempt, lane int) *TaskDesc,
	call func(*Binding, *TaskDesc) (*TaskResult, error),
	onResult func(task int, res *TaskResult) error) *TaskError {
	for attempt := 1; ; attempt++ {
		res, err := call(b, mkDesc(task, attempt, lane))
		if err == nil {
			if oerr := onResult(task, res); oerr != nil {
				// A result the orchestrator cannot absorb (undecodable
				// output) fails identically on every attempt.
				err = Permanent(oerr)
			} else {
				return nil
			}
		}
		if errors.Is(err, errTaskAborted) {
			// The job failed elsewhere while this attempt queued; drop the
			// task silently — its outcome is irrelevant.
			return nil
		}
		if b.Context().Err() != nil {
			// The job was canceled: whatever this attempt's proximate error
			// was (a context error from admission, an aborted read, a task
			// body noticing the cancellation), its outcome is irrelevant.
			// Mark the job failed so concurrently queued attempts drop too,
			// and report no task error — RunContext returns ctx.Err().
			b.failed.Store(true)
			return nil
		}
		worker := exec.LaneHost(kind, lane)
		if res != nil && res.Worker != "" {
			worker = res.Worker
		}
		b.counters.Add(CounterTaskRetries, 1)
		if isPermanent(err) {
			return &TaskError{Job: b.job, Kind: kind, Task: task, Worker: worker, Attempts: attempt, Budget: budget, Err: err}
		}
		if attempt >= budget {
			return &TaskError{Job: b.job, Kind: kind, Task: task, Worker: worker, Attempts: attempt, Budget: budget, Exhausted: true, Err: err}
		}
		b.counters.Add(retryCounter, 1)
		backoff(b.Context(), backoffBase, attempt, b.counters)
	}
}

// roundRobin spreads n tasks over k slots.
func roundRobin(n, k int) [][]int {
	perSlot := make([][]int, k)
	for i := 0; i < n; i++ {
		perSlot[i%k] = append(perSlot[i%k], i)
	}
	return perSlot
}

func maxAttempts[I, K, V, O any](job *Job[I, K, V, O]) int {
	if job.MaxAttempts <= 0 {
		return 1
	}
	return job.MaxAttempts
}

// slotState is the reusable attempt-local state of one executor lane: its
// tasks run sequentially, so one counter registry and one context serve
// every attempt, reset between attempts instead of reallocated. Counter
// deltas of a failed attempt are wiped by the next reset and merged into
// the job-global registry only on success, preserving the no-trace
// guarantee of failed attempts.
type slotState struct {
	local *Counters
	ctx   *TaskContext
}

// get lazily initializes the lane's state for the given task kind.
func (s *slotState) get(kind TaskKind, host string) (*Counters, *TaskContext) {
	if s.local == nil {
		s.local = NewCounters()
		s.ctx = newTaskContext(kind, 0, 1, host, s.local)
	}
	return s.local, s.ctx
}

// backoff sleeps the capped exponential delay before retry number
// failed+1 and meters the time slept. A canceled context cuts the sleep
// short — a canceled job must not keep its caller waiting out a backoff.
func backoff(ctx context.Context, base time.Duration, failed int, counters *Counters) {
	if d := retryDelay(base, failed); d > 0 {
		counters.Add(CounterRetryBackoffMicros, d.Microseconds())
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}

// runMapAttempt runs one attempt of one local map task: the shared map
// body, polling the job's cancellation context, then — only on success, so
// a failed attempt leaves no trace — publishes the attempt's sorted chunks
// to the shared partitions and its counter deltas to the job registry.
func runMapAttempt[I, K, V, O any](jctx context.Context, job *Job[I, K, V, O], split SourceSplit[I], parts []*partitionData[K, V], counters, local *Counters, ctx *TaskContext, task, attempt int) error {
	if job.FaultInjector != nil {
		if ferr := job.FaultInjector(MapTask, task, attempt); ferr != nil {
			return ferr
		}
	}
	chunks, err := mapBody(job, split, len(parts), ctx, jctx.Err)
	if err != nil {
		return err
	}
	published := 0
	for p, cs := range chunks {
		if len(cs) == 0 {
			continue
		}
		parts[p].mu.Lock()
		parts[p].chunks = append(parts[p].chunks, cs...)
		parts[p].mu.Unlock()
		published += len(cs)
	}
	local.Add(CounterShuffleChunks, int64(published))
	counters.Merge(local)
	return nil
}

// runReduceAttempt runs one attempt of one local reduce task: the shared
// reduce body over the partition's published chunks, polling the job's
// cancellation context.
func runReduceAttempt[I, K, V, O any](jctx context.Context, job *Job[I, K, V, O], part *partitionData[K, V], counters, local *Counters, ctx *TaskContext, task, attempt int) ([]O, error) {
	if job.FaultInjector != nil {
		if ferr := job.FaultInjector(ReduceTask, task, attempt); ferr != nil {
			return nil, ferr
		}
	}
	out, err := reduceBody(job, part.chunks, local, ctx, jctx.Err)
	if err != nil {
		return nil, err
	}
	counters.Merge(local)
	return out, nil
}
