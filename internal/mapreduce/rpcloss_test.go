package mapreduce

import (
	"net"
	"net/rpc"
	"testing"
	"time"
)

// Worker-loss tests: a loss the heartbeat sees first, slow-call
// quarantine, and the connections a closed executor must release.
// Everything runs over real loopback TCP.

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
	w := exec.workers[1]
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
	w := &workerConn{name: "hung", slots: 1, client: client}
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

// A worker keeps no connection of a master that closed: each executor's
// Close ends the master→worker connection, and the worker forgets it.
func TestRPCExecutorCloseReleasesWorkerConns(t *testing.T) {
	fs, want := rpcHarness(t, 100)
	w, err := StartWorker("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	open := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.conns)
	}
	for i := 1; i <= 3; i++ {
		exec, err := NewRPCExecutor(fs, []string{w.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		checkRPCSum(t, runRPCSum(t, fs, exec), want)
		exec.Close()
		for deadline := time.Now().Add(2 * time.Second); open() > 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("executor %d: the worker still holds %d connections after Close", i, open())
			}
		}
	}
}
