package mapreduce

import (
	"errors"
	"fmt"
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
// (SetChurn). Every dispatch runs exactly one attempt on one worker.
type RPCExecutor struct {
	master *Master
	fs     *dfs.FileSystem

	// mu guards the membership tables (grow-only: lanes and worker
	// indices stay valid for the lifetime of the executor — a departed
	// worker's lanes reroute rather than disappear) and the churn
	// schedule.
	mu      sync.Mutex
	workers []*workerConn
	lanes   []laneRef
	nameSeq int

	kills      []dfs.WorkerKillEvent
	joins      []dfs.WorkerJoinEvent
	drains     []dfs.WorkerDrainEvent
	globalDisp int

	// lost and quarantined count the live→dead transitions seen outside a
	// task dispatch — by the heartbeat or the end-of-job cleanup — until a
	// dispatch meters them into its job's counters.
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
	e := &RPCExecutor{master: m, fs: fs}
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

// SetChurn installs the full worker-churn schedule of a fault plan:
// kills keyed on per-worker dispatch counts, joins and drains keyed on
// the cluster-global dispatch count. A nil plan clears the schedule.
func (e *RPCExecutor) SetChurn(p *dfs.FaultPlan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p == nil {
		e.kills, e.joins, e.drains = nil, nil, nil
		return
	}
	e.kills = append([]dfs.WorkerKillEvent(nil), p.WorkerKills...)
	e.joins = append([]dfs.WorkerJoinEvent(nil), p.WorkerJoins...)
	e.drains = append([]dfs.WorkerDrainEvent(nil), p.WorkerDrains...)
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
	if err := e.startDrain(w); err != nil {
		return err
	}
	finishDrain(w)
	return nil
}

// startDrain flips w into draining mode unless no other worker is
// available to take its dispatches. The check and the flip are one step
// under e.mu, so neither a scripted drain nor two concurrent DrainWorker
// calls can drain the last available worker.
func (e *RPCExecutor) startDrain(w *workerConn) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, o := range e.workers {
		if o != w && o.available() {
			w.setDraining(true)
			return nil
		}
	}
	return fmt.Errorf("mapreduce: refusing to drain %q: it is the last live worker", w.name)
}

// finishDrain gives a draining worker's in-flight tasks drainTimeout to
// finish, then closes its connection.
func finishDrain(w *workerConn) {
	deadline := time.Now().Add(drainTimeout)
	for w.inflight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(drainPollInterval)
	}
	w.detach()
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

// dispatch executes one attempt of d on the worker its lane routes to.
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
	res, err := e.runOn(b, w, d)
	if err != nil {
		return nil, err
	}
	b.Counters().Add(CounterExecTasksPrefix+w.name, 1)
	return res, nil
}

// runOn executes one attempt on one specific worker: fire any scheduled
// kill for this dispatch, then issue the RunTask call under its deadline,
// metering liveness transitions.
func (e *RPCExecutor) runOn(b *Binding, w *workerConn, d *TaskDesc) (*TaskResult, error) {
	if e.preDispatch(w) {
		e.noteLoss(callLost)
	}
	defer e.meterLosses(b.Counters())
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
// in-flight and current calls fail like a real machine loss. It reports
// whether this call killed the worker.
func (e *RPCExecutor) preDispatch(w *workerConn) bool {
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
	e.mu.Unlock()
	return fire && w.Kill()
}

// applyChurn advances the cluster-global dispatch count and fires every
// scheduled join and drain it reaches. Joins dial out and drains wait for
// in-flight tasks, so both run off the dispatch path; the draining flag
// flips synchronously so routing changes at a deterministic dispatch
// index. A drain that would leave no available worker is refused, as
// DrainWorker refuses it, and not metered.
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
		if w == nil || !w.available() || e.startDrain(w) != nil {
			continue
		}
		b.Counters().Add(CounterExecWorkersDrained, 1)
		go finishDrain(w)
	}
}

// CleanupShuffle implements shuffleCleaner: it removes the job's shuffle
// intermediates from the DFS and releases the workers' cached job
// reconstructions.
func (e *RPCExecutor) CleanupShuffle(b *Binding) {
	prefix := ShufflePrefix(b.JobID())
	for _, name := range e.fs.List() {
		if strings.HasPrefix(name, prefix) {
			e.fs.Delete(name) //nolint:errcheck // best-effort cleanup
		}
	}
	e.mu.Lock()
	workers := e.workers
	e.mu.Unlock()
	for _, w := range workers {
		if w.isDead() {
			continue
		}
		_, oc := w.call("Worker.ForgetJob", &ForgetJobArgs{JobID: b.JobID()}, &ForgetJobReply{}, ctrlCallTimeout)
		e.noteLoss(oc)
	}
}
