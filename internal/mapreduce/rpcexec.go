package mapreduce

import (
	"errors"
	"fmt"
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

// RPCExecutor runs task attempts on remote worker processes over net/rpc.
// Lanes are the flattened (worker, slot) pairs of every attached worker;
// when a worker is lost (a call fails at the transport level, a heartbeat
// misses, or consecutive call timeouts quarantine it), its lanes reroute
// to the next live worker and the orchestrator's retry loop re-dispatches
// the failed attempts there — metered as spq.exec.reexec.
//
// The worker set is fixed at construction: the workers and lanes never
// change afterwards, so they are read without a lock. A worker's loss is
// the only membership event, and a lost or quarantined worker stays lost
// for the executor's life. Every dispatch runs exactly one attempt on one
// worker.
type RPCExecutor struct {
	master  *Master
	fs      *dfs.FileSystem
	workers []*workerConn
	lanes   []int // dispatch lane → index into workers, one lane per slot

	// done stops the heartbeat, which closes beat when it has exited.
	done, beat chan struct{}
	closeOnce  sync.Once

	// mu guards the kill schedule.
	mu    sync.Mutex
	kills []dfs.WorkerKillEvent

	// lost and quarantined count the live→dead transitions seen outside a
	// task dispatch — by the heartbeat or the end-of-job cleanup — until a
	// dispatch meters them into its job's counters.
	lost, quarantined atomic.Int64
}

// heartbeatInterval paces the master's worker liveness probes.
const heartbeatInterval = 250 * time.Millisecond

// NewRPCExecutor starts a master over fs, attaches the worker processes
// listening at addrs (naming them worker-1..worker-n) and begins
// heartbeating them.
func NewRPCExecutor(fs *dfs.FileSystem, addrs []string) (*RPCExecutor, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("mapreduce: RPC executor needs at least one worker address")
	}
	m, err := NewMaster(fs)
	if err != nil {
		return nil, err
	}
	e := &RPCExecutor{master: m, fs: fs, done: make(chan struct{}), beat: make(chan struct{})}
	for i, addr := range addrs {
		w, err := attachWorker(m.Addr(), addr, fmt.Sprintf("worker-%d", i+1))
		if err != nil {
			for _, w := range e.workers {
				w.markDead()
			}
			m.Close()
			return nil, err
		}
		e.workers = append(e.workers, w)
		for range w.slots {
			e.lanes = append(e.lanes, i)
		}
	}
	go e.heartbeat()
	return e, nil
}

// SetKills installs the worker-kill schedule of a fault plan, keyed on
// per-worker dispatch counts. Nil clears it.
func (e *RPCExecutor) SetKills(kills []dfs.WorkerKillEvent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.kills = append([]dfs.WorkerKillEvent(nil), kills...)
}

// Workers returns the names of the attached workers, in attachment order
// (lost ones included — their per-worker counters remain meaningful).
func (e *RPCExecutor) Workers() []string {
	out := make([]string, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.name
	}
	return out
}

// heartbeat pings every live worker each heartbeatInterval until Close; a
// failed ping marks the worker dead (its lanes reroute), and the
// transitions pings perform are metered by the next dispatch.
func (e *RPCExecutor) heartbeat() {
	defer close(e.beat)
	t := time.NewTicker(heartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			for _, w := range e.workers {
				if w.isDead() {
					continue
				}
				_, oc := w.call("Worker.Ping", &PingArgs{}, &PingReply{}, pingCallTimeout)
				e.noteLoss(oc)
			}
		}
	}
}

// Close stops the heartbeat, closes every worker client and shuts the
// master down, returning once the heartbeat has exited. Worker processes
// keep running; external lifecycles own them. Close is idempotent.
func (e *RPCExecutor) Close() error {
	e.closeOnce.Do(func() { close(e.done) })
	for _, w := range e.workers {
		w.markDead() // fails a ping in flight at once
	}
	<-e.beat
	return e.master.Close()
}

// Name implements Executor.
func (e *RPCExecutor) Name() string { return "rpc" }

// Lanes implements Executor: every worker slot is a dispatch lane for
// both phases.
func (e *RPCExecutor) Lanes(kind TaskKind) int { return len(e.lanes) }

// LaneHost implements Executor: a lane's host is its primary worker.
func (e *RPCExecutor) LaneHost(kind TaskKind, lane int) string {
	return e.workers[e.lanes[lane]].name
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
// primary worker, or — after it was lost — the next live worker in
// attachment order (deterministic, so reroutes are replayable).
func (e *RPCExecutor) route(lane int) (w *workerConn, primary bool) {
	p := e.lanes[lane]
	n := len(e.workers)
	for i := 0; i < n; i++ {
		cand := e.workers[(p+i)%n]
		if !cand.isDead() {
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
	if d.Kind == MapTask {
		b.noteMapAttempt(d.Task, d.Attempt)
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
// kill that count reaches — before the dispatch. A kill closes the
// master's client, so the worker's in-flight and current calls fail at
// the transport level, exactly like a machine loss. It reports whether
// this call killed the worker.
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
	return fire && w.markDead()
}

// CleanupShuffle implements shuffleCleaner: it removes the job's shuffle
// intermediates from the DFS and releases the workers' cached job
// reconstructions. It deletes by name, so its cost follows the job's map
// attempts and partitions, not the number of files the DFS holds.
func (e *RPCExecutor) CleanupShuffle(b *Binding) {
	for _, name := range b.shuffleFiles() {
		e.fs.Delete(name) //nolint:errcheck // best-effort cleanup; most names were never written
	}
	for _, w := range e.workers {
		if w.isDead() {
			continue
		}
		_, oc := w.call("Worker.ForgetJob", &ForgetJobArgs{JobID: b.JobID()}, &ForgetJobReply{}, ctrlCallTimeout)
		e.noteLoss(oc)
	}
}
