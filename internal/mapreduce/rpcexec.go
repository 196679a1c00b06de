package mapreduce

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spq/internal/dfs"
)

// shuffleCleaner is implemented by executors whose map tasks persist
// shuffle intermediates in the DFS; the Run loop invokes it when a remote
// job finishes (success or not).
type shuffleCleaner interface {
	CleanupShuffle(b *Binding)
}

// laneRef maps one dispatch lane onto a worker slot.
type laneRef struct {
	worker int // index into RPCExecutor.workers
	slot   int
}

// SpeculationConfig tunes speculative straggler execution: when a task
// attempt has run longer than Multiple times the median completed-task
// duration of its phase, a backup attempt launches on a different live
// worker and the first result wins (the loser is canceled best-effort).
// The zero value of each field selects its default.
type SpeculationConfig struct {
	// Multiple of the phase's median task duration after which an attempt
	// is suspected of straggling (default 3).
	Multiple float64
	// MinTasks is how many completed tasks the phase needs before a
	// median is trusted (default 3); earlier attempts never speculate.
	MinTasks int
	// MinDelay floors the speculation trigger so microsecond tasks do not
	// spawn backups over scheduling noise (default 25ms).
	MinDelay time.Duration
}

func (c *SpeculationConfig) multiple() float64 {
	if c.Multiple <= 1 {
		return 3
	}
	return c.Multiple
}

func (c *SpeculationConfig) minTasks() int {
	if c.MinTasks <= 0 {
		return 3
	}
	return c.MinTasks
}

func (c *SpeculationConfig) minDelay() time.Duration {
	if c.MinDelay <= 0 {
		return 25 * time.Millisecond
	}
	return c.MinDelay
}

// durKey scopes completed-task duration samples to one phase of one job
// execution: medians must not leak across jobs (or from maps into
// reduces, whose durations differ wildly).
type durKey struct {
	jobID string
	kind  TaskKind
}

// RPCExecutor runs task attempts on remote worker processes over net/rpc.
// Lanes are the flattened (worker, slot) pairs of every attached worker;
// when a worker is lost (a call fails at the transport level, a heartbeat
// misses, or consecutive call timeouts quarantine it), its lanes reroute
// to the next live worker and the orchestrator's retry loop re-dispatches
// the failed attempts there — metered as spq.exec.reexec.
//
// Membership is elastic: AddWorker attaches (or rejoins) workers while
// the executor runs — new lanes are picked up by the next phase —
// and DrainWorker detaches one gracefully after its in-flight tasks
// finish. Both compose with the seeded churn schedule of a fault plan
// (SetChurn) and with speculative straggler execution (SetSpeculation).
type RPCExecutor struct {
	master *Master
	fs     *dfs.FileSystem

	// mu guards the membership tables (grow-only: lanes and worker
	// indices stay valid for the lifetime of the executor — a departed
	// worker's lanes reroute rather than disappear), the churn schedule
	// and the per-phase duration samples.
	mu      sync.Mutex
	workers []*workerConn
	lanes   []laneRef
	nameSeq int

	spec *SpeculationConfig

	kills      []dfs.WorkerKillEvent
	joins      []dfs.WorkerJoinEvent
	drains     []dfs.WorkerDrainEvent
	slowdowns  []dfs.WorkerSlowdownEvent
	globalDisp int

	durs map[durKey][]time.Duration

	// lost and quarantined count the live→dead transitions seen outside a
	// task dispatch — by the heartbeat, a cancel or the end-of-job cleanup
	// — until a dispatch meters them into its job's counters.
	lost, quarantined atomic.Int64
}

// heartbeatInterval paces the master's worker liveness probes.
const heartbeatInterval = 250 * time.Millisecond

// Graceful drain: how often the drainer polls the worker's in-flight
// count and how long it waits before detaching anyway (a hung in-flight
// task then fails at the transport level and retries elsewhere).
const (
	drainPollInterval = 2 * time.Millisecond
	drainTimeout      = 30 * time.Second
)

// NewRPCExecutor starts a master over fs, attaches the worker processes
// listening at addrs (naming them worker-1..worker-n) and begins
// heartbeating them. Further workers may join later (AddWorker, or the
// Master.Join RPC from the worker side).
func NewRPCExecutor(fs *dfs.FileSystem, addrs []string) (*RPCExecutor, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("mapreduce: RPC executor needs at least one worker address")
	}
	m, err := NewMaster(fs)
	if err != nil {
		return nil, err
	}
	e := &RPCExecutor{master: m, fs: fs, durs: make(map[durKey][]time.Duration)}
	for i, addr := range addrs {
		w, err := m.AttachWorker(addr, fmt.Sprintf("worker-%d", i+1))
		if err != nil {
			m.Close()
			return nil, err
		}
		e.workers = append(e.workers, w)
		for s := 0; s < w.slots; s++ {
			e.lanes = append(e.lanes, laneRef{worker: i, slot: s})
		}
	}
	e.nameSeq = len(addrs)
	m.SetJoinHandler(e.AddWorker)
	m.heartbeat(heartbeatInterval, e.noteLoss)
	return e, nil
}

// SetWorkerKills installs the worker-crash schedule of a fault plan. The
// schedule is consumed as workers' dispatch counts reach the thresholds.
func (e *RPCExecutor) SetWorkerKills(kills []dfs.WorkerKillEvent) {
	e.mu.Lock()
	e.kills = append([]dfs.WorkerKillEvent(nil), kills...)
	e.mu.Unlock()
}

// SetChurn installs the full worker-churn schedule of a fault plan:
// kills and slowdowns keyed on per-worker dispatch counts, joins and
// drains keyed on the cluster-global dispatch count. A nil plan clears
// the schedule.
func (e *RPCExecutor) SetChurn(p *dfs.FaultPlan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p == nil {
		e.kills, e.joins, e.drains, e.slowdowns = nil, nil, nil, nil
		return
	}
	e.kills = append([]dfs.WorkerKillEvent(nil), p.WorkerKills...)
	e.joins = append([]dfs.WorkerJoinEvent(nil), p.WorkerJoins...)
	e.drains = append([]dfs.WorkerDrainEvent(nil), p.WorkerDrains...)
	e.slowdowns = append([]dfs.WorkerSlowdownEvent(nil), p.WorkerSlowdowns...)
}

// SetSpeculation enables (non-nil) or disables (nil) speculative
// straggler execution.
func (e *RPCExecutor) SetSpeculation(cfg *SpeculationConfig) {
	e.mu.Lock()
	e.spec = cfg
	e.mu.Unlock()
}

func (e *RPCExecutor) specConfig() *SpeculationConfig {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spec
}

// Workers returns the names of every worker ever attached, in attachment
// order (including departed ones — their per-worker counters remain
// meaningful).
func (e *RPCExecutor) Workers() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.name
	}
	return out
}

// workerByName finds a registered worker handle (nil when unknown).
func (e *RPCExecutor) workerByName(name string) *workerConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range e.workers {
		if w.name == name {
			return w
		}
	}
	return nil
}

// AddWorker attaches the worker process listening at addr to the running
// executor under the given name ("" auto-assigns the next worker-N). If
// the name belongs to a previously lost or drained worker, the worker
// rejoins in place: its existing lanes route to the fresh connection
// immediately. A brand-new worker's lanes are appended and picked up by
// the next phase that starts. It returns the registered name.
func (e *RPCExecutor) AddWorker(addr, name string) (string, error) {
	e.mu.Lock()
	var existing *workerConn
	if name == "" {
		inUse := make(map[string]bool, len(e.workers))
		for _, w := range e.workers {
			inUse[w.name] = true
		}
		for {
			e.nameSeq++
			name = fmt.Sprintf("worker-%d", e.nameSeq)
			if !inUse[name] {
				break
			}
		}
	} else {
		for _, w := range e.workers {
			if w.name == name {
				existing = w
				break
			}
		}
		if existing != nil && existing.available() {
			e.mu.Unlock()
			return "", fmt.Errorf("mapreduce: worker %q is already attached and live", name)
		}
	}
	e.mu.Unlock()

	client, slots, err := e.master.dialWorker(addr, name)
	if err != nil {
		return "", err
	}
	if existing != nil {
		existing.rebind(addr, client, slots)
		return name, nil
	}
	w := &workerConn{name: name, addr: addr, slots: slots, client: client}
	e.master.register(w)
	e.mu.Lock()
	idx := len(e.workers)
	e.workers = append(e.workers, w)
	for s := 0; s < w.slots; s++ {
		e.lanes = append(e.lanes, laneRef{worker: idx, slot: s})
	}
	e.mu.Unlock()
	return name, nil
}

// DrainWorker gracefully detaches a worker: new task dispatches route
// around it immediately, its in-flight tasks are given drainTimeout to
// finish, then the connection closes. The worker process keeps running
// and may rejoin later under the same name. Draining the last available
// worker is refused — it would strand every subsequent dispatch.
func (e *RPCExecutor) DrainWorker(name string) error {
	w := e.workerByName(name)
	if w == nil {
		return fmt.Errorf("mapreduce: unknown worker %q", name)
	}
	if w.isDead() {
		return fmt.Errorf("mapreduce: worker %q is not attached", name)
	}
	e.mu.Lock()
	others := false
	for _, o := range e.workers {
		if o != w && o.available() {
			others = true
			break
		}
	}
	e.mu.Unlock()
	if !others {
		return fmt.Errorf("mapreduce: refusing to drain %q: it is the last live worker", name)
	}
	w.setDraining(true)
	deadline := time.Now().Add(drainTimeout)
	for w.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(drainPollInterval)
	}
	w.detach()
	return nil
}

// MasterAddr returns the listen address of the executor's master, which
// worker processes join via the Master.Join RPC.
func (e *RPCExecutor) MasterAddr() string { return e.master.Addr() }

// Close shuts down the master (listener and worker clients). Worker
// processes keep running; external lifecycles own them.
func (e *RPCExecutor) Close() error { return e.master.Close() }

// Name implements Executor.
func (e *RPCExecutor) Name() string { return "rpc" }

// Lanes implements Executor: every worker slot is a dispatch lane for
// both phases. The lane table only ever grows — a phase snapshots the
// count at start, and joins mid-phase surface in the next one.
func (e *RPCExecutor) Lanes(kind TaskKind) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.lanes)
}

// LaneHost implements Executor: a lane's host is its primary worker.
func (e *RPCExecutor) LaneHost(kind TaskKind, lane int) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workers[e.lanes[lane].worker].name
}

// RunMapTask implements Executor.
func (e *RPCExecutor) RunMapTask(b *Binding, d *TaskDesc) (*TaskResult, error) {
	return e.dispatch(b, d)
}

// RunReduceTask implements Executor.
func (e *RPCExecutor) RunReduceTask(b *Binding, d *TaskDesc) (*TaskResult, error) {
	return e.dispatch(b, d)
}

// route picks the worker executing a lane's next attempt: the lane's
// primary worker, or — after it was lost or while it drains — the next
// available worker in attachment order (deterministic, so reroutes are
// replayable).
func (e *RPCExecutor) route(lane int) (w *workerConn, primary bool) {
	e.mu.Lock()
	workers := e.workers
	p := e.lanes[lane].worker
	e.mu.Unlock()
	n := len(workers)
	for i := 0; i < n; i++ {
		cand := workers[(p+i)%n]
		if cand.available() {
			return cand, i == 0
		}
	}
	return nil, false
}

// pickBackup chooses the worker for a speculative backup attempt: the
// next available worker after the lane's primary that is not the one
// already running the attempt. Nil when the cluster has no second
// worker to race on.
func (e *RPCExecutor) pickBackup(avoid *workerConn, lane int) *workerConn {
	e.mu.Lock()
	workers := e.workers
	p := e.lanes[lane].worker
	e.mu.Unlock()
	n := len(workers)
	for i := 0; i < n; i++ {
		cand := workers[(p+1+i)%n]
		if cand != avoid && cand.available() {
			return cand
		}
	}
	return nil
}

// dispatch executes one attempt, racing a speculative backup against it
// when the attempt overstays the phase's median completion time. Exactly
// one result is returned (and absorbed by the orchestrator); the losing
// twin is canceled best-effort and its side effects are never referenced.
func (e *RPCExecutor) dispatch(b *Binding, d *TaskDesc) (*TaskResult, error) {
	if b.Failed() {
		return nil, errTaskAborted
	}
	if err := b.Context().Err(); err != nil {
		// The job was canceled while this attempt queued; don't spend a
		// worker round-trip on work whose output is discarded.
		return nil, err
	}
	e.applyChurn(b)
	w, primary := e.route(d.Lane)
	if w == nil {
		// Nothing left to run on; retrying cannot help.
		return nil, Permanent(fmt.Errorf("mapreduce: job %q: all workers lost", b.Job()))
	}
	if d.Attempt > 1 && !primary {
		// A re-execution proper: the attempt's lane lost its worker and the
		// task is re-dispatched elsewhere.
		b.Counters().Add(CounterExecReexec, 1)
	}

	type outcome struct {
		res *TaskResult
		err error
		w   *workerConn
		d   *TaskDesc
		dur time.Duration
	}
	// Buffered for both racers: the loser's outcome parks here after
	// dispatch returns, leaking nothing.
	ch := make(chan outcome, 2)
	launch := func(w *workerConn, d *TaskDesc) {
		go func() {
			start := time.Now()
			res, err := e.runOn(b, w, d)
			ch <- outcome{res: res, err: err, w: w, d: d, dur: time.Since(start)}
		}()
	}
	launch(w, d)
	inflight := 1

	var timerC <-chan time.Time
	if delay := e.specDelay(d); delay > 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		timerC = timer.C
	}

	var backupW *workerConn
	var primaryErr, backupErr error
	for inflight > 0 {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				e.recordDuration(d, o.dur)
				if backupW != nil {
					// A race was on: meter how it ended and cancel the
					// losing twin so the worker stops burning its slot.
					if o.d.Backup != 0 {
						b.Counters().Add(CounterExecSpecWon, 1)
						e.cancelAttempt(w, d)
					} else {
						b.Counters().Add(CounterExecSpecWasted, 1)
						bd := *d
						bd.Backup = 1
						e.cancelAttempt(backupW, &bd)
					}
				}
				b.Counters().Add(CounterExecTasksPrefix+o.w.name, 1)
				return o.res, nil
			}
			if o.d.Backup == 0 {
				primaryErr = o.err
			} else {
				backupErr = o.err
			}
		case <-timerC:
			timerC = nil
			bw := e.pickBackup(w, d.Lane)
			if bw == nil {
				continue
			}
			backupW = bw
			bd := *d
			bd.Backup = 1
			b.Counters().Add(CounterExecSpecLaunched, 1)
			launch(bw, &bd)
			inflight++
		}
	}
	// Both (or the only) attempts failed: surface the primary's error for
	// retry classification when it has one.
	if primaryErr != nil {
		return nil, primaryErr
	}
	return nil, backupErr
}

// runOn executes one attempt on one specific worker: fire any scheduled
// chaos for this dispatch (kill, injected straggler latency), then issue
// the RunTask call under its deadline, metering liveness transitions.
func (e *RPCExecutor) runOn(b *Binding, w *workerConn, d *TaskDesc) (*TaskResult, error) {
	killed, delay := e.preDispatch(w)
	if killed {
		e.noteLoss(callLost)
	}
	defer e.meterLosses(b.Counters())
	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-b.Context().Done():
			t.Stop()
			return nil, b.Context().Err()
		}
	}
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	args := &RunTaskArgs{Desc: *d}
	var reply RunTaskReply
	err, oc := w.call("Worker.RunTask", args, &reply, taskCallTimeout)
	e.noteLoss(oc)
	if err != nil {
		return nil, err
	}
	if reply.Err != "" {
		terr := errors.New(reply.Err)
		if reply.Permanent {
			terr = Permanent(terr)
		}
		return &reply.Result, terr
	}
	return &reply.Result, nil
}

// cancelAttempt tells a worker to abandon the losing side of a
// speculative race, off the dispatch path and best-effort (the result is
// discarded master-side either way).
func (e *RPCExecutor) cancelAttempt(w *workerConn, d *TaskDesc) {
	args := &CancelTaskArgs{JobID: d.JobID, Kind: d.Kind, Task: d.Task, Backup: d.Backup}
	go func() {
		_, oc := w.call("Worker.CancelTask", args, &CancelTaskReply{}, ctrlCallTimeout)
		e.noteLoss(oc)
	}()
}

// noteLoss records the live→dead transition a worker call performed, if
// any, for the next meterLosses.
func (e *RPCExecutor) noteLoss(oc callOutcome) {
	switch oc {
	case callQuarantined:
		e.quarantined.Add(1)
		e.lost.Add(1)
	case callLost:
		e.lost.Add(1)
	}
}

// meterLosses moves the recorded transitions into a job's counters, so
// each one is counted exactly once, by whichever job dispatches next.
func (e *RPCExecutor) meterLosses(c *Counters) {
	if n := e.lost.Swap(0); n > 0 {
		c.Add(CounterExecWorkersLost, n)
	}
	if n := e.quarantined.Swap(0); n > 0 {
		c.Add(CounterExecWorkersQuarantined, n)
	}
}

// preDispatch advances w's dispatch count and fires any scheduled worker
// kill that count reaches — before the dispatch, so the killed worker's
// in-flight and current calls fail like a real machine loss — and
// returns the straggler latency the slowdown schedule injects for this
// dispatch.
func (e *RPCExecutor) preDispatch(w *workerConn) (killed bool, delay time.Duration) {
	w.mu.Lock()
	w.dispatched++
	n := w.dispatched
	w.mu.Unlock()

	e.mu.Lock()
	fire := false
	for i := 0; i < len(e.kills); {
		k := e.kills[i]
		if k.Worker == w.name && n >= k.AfterTasks {
			fire = true
			e.kills = append(e.kills[:i], e.kills[i+1:]...)
			continue
		}
		i++
	}
	for _, ev := range e.slowdowns {
		if ev.Worker == w.name && n >= ev.AfterTasks && ev.Delay > delay {
			delay = ev.Delay
		}
	}
	e.mu.Unlock()
	return fire && w.Kill(), delay
}

// applyChurn advances the cluster-global dispatch count and fires every
// scheduled join and drain it reaches. Joins dial out and drains wait for
// in-flight tasks, so both run off the dispatch path; the draining flag
// flips synchronously so routing changes at a deterministic dispatch
// index.
func (e *RPCExecutor) applyChurn(b *Binding) {
	e.mu.Lock()
	e.globalDisp++
	n := e.globalDisp
	var joins []dfs.WorkerJoinEvent
	for i := 0; i < len(e.joins); {
		if n >= e.joins[i].AfterTasks {
			joins = append(joins, e.joins[i])
			e.joins = append(e.joins[:i], e.joins[i+1:]...)
			continue
		}
		i++
	}
	var drains []dfs.WorkerDrainEvent
	for i := 0; i < len(e.drains); {
		if n >= e.drains[i].AfterTasks {
			drains = append(drains, e.drains[i])
			e.drains = append(e.drains[:i], e.drains[i+1:]...)
			continue
		}
		i++
	}
	e.mu.Unlock()

	for _, ev := range joins {
		b.Counters().Add(CounterExecWorkersJoined, 1)
		go e.AddWorker(ev.Addr, ev.Name) //nolint:errcheck // chaos joins are best-effort; a failed join is just absent capacity
	}
	for _, ev := range drains {
		w := e.workerByName(ev.Worker)
		if w == nil || !w.available() {
			continue
		}
		b.Counters().Add(CounterExecWorkersDrained, 1)
		w.setDraining(true)
		go e.DrainWorker(ev.Worker) //nolint:errcheck // the drain either completes or the detach deadline forces it
	}
}

// recordDuration adds one completed-attempt duration to its phase's
// sample set (only while speculation is enabled — the samples exist to
// estimate the median).
func (e *RPCExecutor) recordDuration(d *TaskDesc, dur time.Duration) {
	e.mu.Lock()
	if e.spec != nil {
		k := durKey{jobID: d.JobID, kind: d.Kind}
		e.durs[k] = append(e.durs[k], dur)
	}
	e.mu.Unlock()
}

// specDelay returns how long an attempt of d may run before a backup
// launches, or 0 when speculation is off or the phase has not completed
// enough tasks to trust a median.
func (e *RPCExecutor) specDelay(d *TaskDesc) time.Duration {
	e.mu.Lock()
	cfg := e.spec
	var samples []time.Duration
	if cfg != nil {
		ds := e.durs[durKey{jobID: d.JobID, kind: d.Kind}]
		if len(ds) >= cfg.minTasks() {
			samples = append([]time.Duration(nil), ds...)
		}
	}
	e.mu.Unlock()
	if samples == nil {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	median := samples[len(samples)/2]
	delay := time.Duration(float64(median) * cfg.multiple())
	if min := cfg.minDelay(); delay < min {
		delay = min
	}
	return delay
}

// CleanupShuffle implements shuffleCleaner: it removes the job's shuffle
// intermediates from the DFS, releases the workers' cached job
// reconstructions and drops the job's duration samples.
func (e *RPCExecutor) CleanupShuffle(b *Binding) {
	prefix := ShufflePrefix(b.JobID())
	for _, name := range e.fs.List() {
		if strings.HasPrefix(name, prefix) {
			e.fs.Delete(name) //nolint:errcheck // best-effort cleanup
		}
	}
	e.mu.Lock()
	workers := e.workers
	delete(e.durs, durKey{jobID: b.JobID(), kind: MapTask})
	delete(e.durs, durKey{jobID: b.JobID(), kind: ReduceTask})
	e.mu.Unlock()
	for _, w := range workers {
		if w.isDead() {
			continue
		}
		_, oc := w.call("Worker.ForgetJob", &ForgetJobArgs{JobID: b.JobID()}, &ForgetJobReply{}, ctrlCallTimeout)
		e.noteLoss(oc)
	}
}
