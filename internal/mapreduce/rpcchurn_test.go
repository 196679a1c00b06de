package mapreduce

import (
	"net"
	"net/rpc"
	"testing"
	"time"

	"spq/internal/dfs"
)

// Elastic-membership tests: workers joining a running executor, graceful
// drains, crash-rejoin under the same name, and slow-call quarantine.
// Everything runs over real loopback TCP.

// workerTasks sums the per-worker task counters of name across results.
func workerTasks(res *Result[string], name string) int64 {
	return res.Counters[CounterExecTasksPrefix+name]
}

// A worker attached mid-engine (AddWorker) must show up in the membership
// list, grow the lane table, and execute tasks of the next job.
func TestRPCExecutorAddWorkerMidEngine(t *testing.T) {
	fs, want := rpcHarness(t, 500)
	exec, err := NewRPCExecutor(fs, startWorkers(t, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	checkRPCSum(t, runRPCSum(t, fs, exec), want)
	lanesBefore := exec.Lanes(MapTask)

	addr := startWorkers(t, 1, 2)[0]
	name, err := exec.AddWorker(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	if name != "worker-2" {
		t.Fatalf("auto-assigned name %q, want worker-2", name)
	}
	if got := exec.Lanes(MapTask); got != lanesBefore+2 {
		t.Fatalf("lanes = %d after join, want %d", got, lanesBefore+2)
	}
	ws := exec.Workers()
	if len(ws) != 2 || ws[1] != "worker-2" {
		t.Fatalf("Workers() = %v, want [worker-1 worker-2]", ws)
	}

	res := runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	if workerTasks(res, "worker-2") == 0 {
		t.Error("joined worker executed no tasks")
	}

	// A second AddWorker under a live name must refuse, not double-attach.
	if _, err := exec.AddWorker(addr, "worker-2"); err == nil {
		t.Error("AddWorker accepted a name that is already attached and live")
	}
}

// Worker-initiated membership: JoinMaster must register the worker with
// the running master (which dials it back), exactly like AddWorker.
func TestRPCExecutorJoinMaster(t *testing.T) {
	fs, want := rpcHarness(t, 300)
	exec, err := NewRPCExecutor(fs, startWorkers(t, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	w, err := StartWorker("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	name, err := JoinMaster(exec.MasterAddr(), w.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if name != "worker-2" {
		t.Fatalf("join assigned name %q, want worker-2", name)
	}

	res := runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	if workerTasks(res, name) == 0 {
		t.Error("self-joined worker executed no tasks")
	}
}

// Graceful drain: the drained worker stops receiving tasks but can rejoin
// under its old name without an engine restart; draining the last live
// worker is refused.
func TestRPCExecutorDrainAndRejoin(t *testing.T) {
	fs, want := rpcHarness(t, 500)
	addrs := startWorkers(t, 2, 2)
	exec, err := NewRPCExecutor(fs, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	if err := exec.DrainWorker("worker-2"); err != nil {
		t.Fatal(err)
	}
	if err := exec.DrainWorker("worker-1"); err == nil {
		t.Error("drained the last live worker")
	}
	if err := exec.DrainWorker("worker-2"); err == nil {
		t.Error("drained a worker that is already detached")
	}
	if err := exec.DrainWorker("nobody"); err == nil {
		t.Error("drained an unknown worker")
	}

	res := runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	if n := workerTasks(res, "worker-2"); n != 0 {
		t.Errorf("drained worker ran %d tasks", n)
	}
	if workerTasks(res, "worker-1") == 0 {
		t.Error("surviving worker ran no tasks")
	}

	// Rejoin in place: same name, same (still-running) process.
	if name, err := exec.AddWorker(addrs[1], "worker-2"); err != nil || name != "worker-2" {
		t.Fatalf("rejoin: name=%q err=%v", name, err)
	}
	res = runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	if workerTasks(res, "worker-2") == 0 {
		t.Error("rejoined worker executed no tasks")
	}
}

// A crashed worker must be able to rejoin under its old name (fresh
// process at a fresh address) with the engine still running.
func TestRPCExecutorCrashRejoin(t *testing.T) {
	fs, want := rpcHarness(t, 500)
	addrs := startWorkers(t, 2, 2)
	exec, err := NewRPCExecutor(fs, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SetChurn(&dfs.FaultPlan{WorkerKills: []dfs.WorkerKillEvent{{Worker: "worker-2", AfterTasks: 1}}})

	res := runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	if res.Counters[CounterExecWorkersLost] == 0 {
		t.Fatal("kill plan fired no loss")
	}

	// A fresh process claims the dead name.
	fresh, err := StartWorker("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Stop)
	if name, err := JoinMaster(exec.MasterAddr(), fresh.Addr(), "worker-2"); err != nil || name != "worker-2" {
		t.Fatalf("crash rejoin: name=%q err=%v", name, err)
	}
	res = runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	if workerTasks(res, "worker-2") == 0 {
		t.Error("rejoined worker executed no tasks")
	}
}

// A seeded churn plan mixing a join and a drain must fire both (metered)
// and leave the result untouched; the joined worker serves the next job.
func TestRPCExecutorChurnPlan(t *testing.T) {
	fs, want := rpcHarness(t, 500)
	exec, err := NewRPCExecutor(fs, startWorkers(t, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	joiner, err := StartWorker("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Stop)
	exec.SetChurn(&dfs.FaultPlan{
		WorkerJoins:  []dfs.WorkerJoinEvent{{Addr: joiner.Addr(), Name: "joiner", AfterTasks: 2}},
		WorkerDrains: []dfs.WorkerDrainEvent{{Worker: "worker-2", AfterTasks: 4}},
	})

	res := runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	if res.Counters[CounterExecWorkersJoined] == 0 {
		t.Error("scheduled join not metered")
	}
	if res.Counters[CounterExecWorkersDrained] == 0 {
		t.Error("scheduled drain not metered")
	}
	if res.Counters[CounterExecWorkersLost] != 0 {
		t.Error("graceful drain metered as a loss")
	}

	// The next job must route onto the joined worker.
	res = runRPCSum(t, fs, exec)
	checkRPCSum(t, res, want)
	if workerTasks(res, "joiner") == 0 {
		t.Error("chaos-joined worker executed no tasks in the following job")
	}
}

// A scripted drain of the only live worker must be refused like the API
// drain is: the worker keeps serving, both jobs succeed, and nothing is
// metered as drained.
func TestRPCExecutorScriptedDrainOfLastWorker(t *testing.T) {
	fs, want := rpcHarness(t, 500)
	exec, err := NewRPCExecutor(fs, startWorkers(t, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SetChurn(&dfs.FaultPlan{
		WorkerDrains: []dfs.WorkerDrainEvent{{Worker: "worker-1", AfterTasks: 2}},
	})

	for i := 1; i <= 2; i++ {
		res := runRPCSum(t, fs, exec)
		checkRPCSum(t, res, want)
		if n := res.Counters[CounterExecWorkersDrained]; n != 0 {
			t.Errorf("job %d: %s = %d for a refused drain, want 0", i, CounterExecWorkersDrained, n)
		}
	}
}

// A worker lost while no job runs is seen first by the heartbeat. The
// loss must still be metered, once: in the next job, and not in the one
// after it.
func TestRPCExecutorHeartbeatLossMetered(t *testing.T) {
	fs, want := rpcHarness(t, 300)
	victim, err := StartWorker("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(victim.Stop)
	exec, err := NewRPCExecutor(fs, append(startWorkers(t, 1, 2), victim.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	checkRPCSum(t, runRPCSum(t, fs, exec), want)

	victim.Stop()
	w := exec.workerByName("worker-2")
	for deadline := time.Now().Add(10 * time.Second); !w.isDead(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("heartbeat never marked the stopped worker dead")
		}
	}
	for i, lost := range []int64{1, 0} {
		res := runRPCSum(t, fs, exec)
		checkRPCSum(t, res, want)
		if got := res.Counters[CounterExecWorkersLost]; got != lost {
			t.Errorf("job %d after the loss: %s = %d, want %d", i+1, CounterExecWorkersLost, got, lost)
		}
	}
}

// slowRPCWorker answers Ping only after a long delay — a hung-but-alive
// worker from the master's perspective.
type slowRPCWorker struct{ delay time.Duration }

func (s *slowRPCWorker) Ping(args *PingArgs, reply *PingReply) error {
	time.Sleep(s.delay)
	return nil
}

// Consecutive call timeouts must quarantine a worker — treated as lost
// even though its TCP connection never failed — with the transition
// reported exactly once, on the quarantining call.
func TestWorkerConnQuarantine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &slowRPCWorker{delay: time.Minute}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()

	client, err := rpc.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := &workerConn{name: "hung", addr: ln.Addr().String(), slots: 1, client: client}
	for i := 1; i < quarantineAfter; i++ {
		err, oc := w.call("Worker.Ping", &PingArgs{}, &PingReply{}, 5*time.Millisecond)
		if err == nil {
			t.Fatalf("call %d succeeded against a hung worker", i)
		}
		if oc != callOK {
			t.Fatalf("call %d outcome = %v before the quarantine threshold", i, oc)
		}
		if w.isDead() {
			t.Fatalf("worker dead after %d timeouts, threshold is %d", i, quarantineAfter)
		}
	}
	err, oc := w.call("Worker.Ping", &PingArgs{}, &PingReply{}, 5*time.Millisecond)
	if err == nil || oc != callQuarantined {
		t.Fatalf("quarantining call: err=%v outcome=%v, want error + callQuarantined", err, oc)
	}
	if !w.isDead() {
		t.Error("quarantined worker still reports alive")
	}
	if err, oc := w.call("Worker.Ping", &PingArgs{}, &PingReply{}, 5*time.Millisecond); err == nil || oc != callOK {
		t.Errorf("post-quarantine call: err=%v outcome=%v, want down error without a second transition", err, oc)
	}
}

// An answered call resets the consecutive-timeout count: intermittent
// slowness never accumulates into a quarantine.
func TestWorkerConnSlowCallReset(t *testing.T) {
	w := &workerConn{name: "w", slots: 1}
	w.slowCalls = quarantineAfter - 1
	w.resetSlow()
	if w.noteSlow() {
		t.Error("a single timeout after a reset quarantined the worker")
	}
}
