// Master/worker execution over net/rpc.
//
// The master lives in the engine process: it owns the DFS and listens for
// worker callbacks (file fetches, shuffle writes). Workers are separate
// processes (or loopback servers in tests) serving RunTask: they
// reconstruct jobs from
// wire descriptors through the job-kind registry and execute whole task
// attempts, reading inputs from and writing shuffle intermediates to the
// master's DFS — which brings replication, checksums and repair to the
// shuffle path for free.
package mapreduce

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"spq/internal/dfs"
)

// RPC argument/reply types. All exported for net/rpc's gob codec.

// FetchArgs/FetchReply move one whole file master -> worker.
type FetchArgs struct{ Name string }
type FetchReply struct{ Data []byte }

// StoreArgs publishes one shuffle file worker -> master.
type StoreArgs struct {
	Name string
	Data []byte
}
type StoreReply struct{}

// AttachArgs introduce a master to a worker; the reply carries the
// worker's task capacity.
type AttachArgs struct {
	// Master is the address of the master's callback listener.
	Master string
	// Name is the name the master assigned this worker.
	Name string
}
type AttachReply struct {
	// Slots is the number of tasks the worker runs concurrently.
	Slots int
}

// RunTaskArgs/RunTaskReply execute one task attempt master -> worker. Task
// failures travel in the reply rather than as the RPC error: net/rpc
// flattens method errors to strings, which would strip the Permanent
// marking the orchestrator's retry loop classifies on.
type RunTaskArgs struct{ Desc TaskDesc }
type RunTaskReply struct {
	Result TaskResult
	// Err is the task attempt's failure message ("" on success);
	// Permanent reports whether it was marked not-retryable.
	Err       string
	Permanent bool
}

// PingArgs/PingReply carry heartbeats.
type PingArgs struct{}
type PingReply struct{}

// ForgetJobArgs tells a worker a job finished, releasing its cached
// reconstruction.
type ForgetJobArgs struct{ JobID string }
type ForgetJobReply struct{}

// MasterService is the RPC surface workers call back into.
type MasterService struct {
	fs *dfs.FileSystem
}

// Fetch serves a whole-file read from the master DFS.
func (s *MasterService) Fetch(args *FetchArgs, reply *FetchReply) error {
	data, err := s.fs.ReadAll(args.Name)
	if err != nil {
		return err
	}
	reply.Data = data
	return nil
}

// Store publishes a worker-written shuffle file into the master DFS.
func (s *MasterService) Store(args *StoreArgs, reply *StoreReply) error {
	return s.fs.Create(args.Name, args.Data)
}

// Master is the callback listener workers call back into. It tracks the
// connections it accepted, so Close releases every one of them even while
// the worker processes keep running.
type Master struct {
	addr string
	ln   net.Listener
	wg   sync.WaitGroup // the accept loop and one server per connection

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Per-call deadlines. A hung (but not dead) worker would otherwise stall
// a call forever: net/rpc has no timeouts of its own, and the heartbeat
// only catches connections that fail, not ones that stop answering.
const (
	// taskCallTimeout bounds Worker.RunTask: generous, because task
	// attempts legitimately run for a while.
	taskCallTimeout = 2 * time.Minute
	// ctrlCallTimeout bounds small control-plane calls (Fetch/Store/
	// ForgetJob/Attach) in either direction.
	ctrlCallTimeout = 15 * time.Second
	// pingCallTimeout bounds heartbeat probes.
	pingCallTimeout = 2 * time.Second
	// quarantineAfter is the number of consecutive timed-out calls after
	// which a worker is quarantined: treated as lost (its lanes reroute)
	// even though its TCP connection never failed.
	quarantineAfter = 3
)

// callOutcome classifies the transport-level result of one worker call,
// so the dispatcher can meter live→dead transitions exactly once and
// distinguish how the worker was lost.
type callOutcome int

const (
	// callOK: the call completed (successfully or with an application
	// error), or failed without a liveness transition.
	callOK callOutcome = iota
	// callLost: this call's transport fault performed the live→dead
	// transition.
	callLost
	// callQuarantined: this call's timeout was the worker's
	// quarantineAfter-th consecutive one and performed the transition.
	callQuarantined
)

// errCallTimeout marks a per-call deadline expiry.
var errCallTimeout = errors.New("mapreduce: rpc call timed out")

// callWithTimeout invokes one RPC with a deadline. On expiry it abandons
// the in-flight call (the pending rpc.Call completes into its buffered
// channel later, leaking nothing) and returns errCallTimeout.
func callWithTimeout(c *rpc.Client, method string, args, reply any, timeout time.Duration) error {
	if timeout <= 0 {
		return c.Call(method, args, reply)
	}
	call := c.Go(method, args, reply, make(chan *rpc.Call, 1))
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-call.Done:
		return call.Error
	case <-t.C:
		return fmt.Errorf("%w: %s after %v", errCallTimeout, method, timeout)
	}
}

// workerConn is the master's handle of one attached worker. The name,
// slot count and client are fixed at attach; a lost worker stays lost.
type workerConn struct {
	name   string
	slots  int
	client *rpc.Client

	mu   sync.Mutex
	dead bool
	// dispatched counts task dispatches to this worker (drives the
	// seeded worker-kill plan of the chaos harness).
	dispatched int
	// slowCalls counts consecutive timed-out calls; reaching
	// quarantineAfter treats the worker as lost.
	slowCalls int
}

// attachWorker dials the worker process at addr, introduces the master
// listening at masterAddr and learns the worker's slot capacity.
func attachWorker(masterAddr, addr, name string) (*workerConn, error) {
	client, err := rpc.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: dial worker %s: %w", addr, err)
	}
	var reply AttachReply
	if err := callWithTimeout(client, "Worker.Attach", &AttachArgs{Master: masterAddr, Name: name}, &reply, ctrlCallTimeout); err != nil {
		client.Close()
		return nil, fmt.Errorf("mapreduce: attach worker %s: %w", addr, err)
	}
	return &workerConn{name: name, slots: max(reply.Slots, 1), client: client}, nil
}

// call invokes an RPC on the worker under a deadline. Any failure that is
// not an application error returned by the remote method
// (rpc.ServerError) is a transport fault or a deadline expiry: a
// transport fault marks the worker dead immediately; a timeout counts
// toward consecutive-slow-call quarantine. The outcome reports whether
// this call performed the live→dead transition, and how.
func (w *workerConn) call(method string, args, reply any, timeout time.Duration) (error, callOutcome) {
	if w.isDead() {
		return fmt.Errorf("mapreduce: worker %s is down", w.name), callOK
	}
	err := callWithTimeout(w.client, method, args, reply, timeout)
	if err == nil {
		w.resetSlow()
		return nil, callOK
	}
	if _, server := err.(rpc.ServerError); server {
		// The worker answered; it is alive, just unhappy.
		w.resetSlow()
		return err, callOK
	}
	if errors.Is(err, errCallTimeout) {
		if w.noteSlow() {
			return fmt.Errorf("mapreduce: worker %s quarantined after %d consecutive call timeouts: %w", w.name, quarantineAfter, err), callQuarantined
		}
		return fmt.Errorf("mapreduce: worker %s: %w", w.name, err), callOK
	}
	if w.markDead() {
		return fmt.Errorf("mapreduce: worker %s lost: %w", w.name, err), callLost
	}
	return fmt.Errorf("mapreduce: worker %s lost: %w", w.name, err), callOK
}

// resetSlow clears the consecutive-timeout counter: any answered call
// proves the worker is responsive.
func (w *workerConn) resetSlow() {
	w.mu.Lock()
	w.slowCalls = 0
	w.mu.Unlock()
}

// noteSlow records one timed-out call and quarantines the worker when it
// is the quarantineAfter-th consecutive one, reporting whether this call
// performed the live→dead transition.
func (w *workerConn) noteSlow() bool {
	w.mu.Lock()
	w.slowCalls++
	fire := w.slowCalls >= quarantineAfter
	w.mu.Unlock()
	return fire && w.markDead()
}

// markDead closes the client and flags the worker unusable, reporting
// whether this call performed the transition.
func (w *workerConn) markDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return false
	}
	w.dead = true
	if w.client != nil {
		w.client.Close()
	}
	return true
}

// isDead reports the worker's liveness flag.
func (w *workerConn) isDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dead
}

// NewMaster starts the master's callback listener on a loopback address.
func NewMaster(fs *dfs.FileSystem) (*Master, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("mapreduce: master listen: %w", err)
	}
	m := &Master{addr: ln.Addr().String(), ln: ln, conns: make(map[net.Conn]struct{})}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", &MasterService{fs: fs}); err != nil {
		ln.Close()
		return nil, err
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			m.mu.Lock()
			if m.closed {
				m.mu.Unlock()
				conn.Close()
				return
			}
			m.conns[conn] = struct{}{}
			m.wg.Add(1)
			m.mu.Unlock()
			go func() {
				defer m.wg.Done()
				srv.ServeConn(conn)
				m.mu.Lock()
				delete(m.conns, conn)
				m.mu.Unlock()
			}()
		}
	}()
	return m, nil
}

// Addr returns the master's callback address.
func (m *Master) Addr() string { return m.addr }

// Close stops the callback listener and closes every connection it
// accepted, returning once their servers have exited. Worker processes
// keep running (they belong to their own lifecycle); each drops its end
// of the connection when it sees it close.
func (m *Master) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	err := m.ln.Close()
	for c := range conns {
		c.Close()
	}
	m.wg.Wait()
	return err
}

// WorkerService is the RPC surface a worker process serves to its master.
type WorkerService struct {
	w *WorkerNode
}

// Attach introduces a master: the worker dials the master's callback
// address and builds a fresh environment over that connection.
func (s *WorkerService) Attach(args *AttachArgs, reply *AttachReply) error {
	if err := s.w.attach(args.Master, args.Name); err != nil {
		return err
	}
	reply.Slots = s.w.slots
	return nil
}

// RunTask executes one task attempt. Attempt failures are encoded into
// the reply (see RunTaskReply); an RPC-level error here means the worker
// itself is unusable.
func (s *WorkerService) RunTask(args *RunTaskArgs, reply *RunTaskReply) error {
	env := s.w.env()
	if env == nil {
		return fmt.Errorf("mapreduce: worker %s has no attached master", s.w.listenAddr)
	}
	res, err := env.RunTask(&args.Desc)
	if err != nil {
		reply.Err = err.Error()
		reply.Permanent = isPermanent(err)
		return nil
	}
	reply.Result = *res
	return nil
}

// ForgetJob drops a finished job's cached reconstruction.
func (s *WorkerService) ForgetJob(args *ForgetJobArgs, reply *ForgetJobReply) error {
	if env := s.w.env(); env != nil {
		env.forgetJob(args.JobID)
	}
	return nil
}

// Ping answers master liveness probes.
func (s *WorkerService) Ping(args *PingArgs, reply *PingReply) error { return nil }

// WorkerNode is one worker: a TCP listener serving WorkerService, bound
// to at most one master at a time. It runs as a standalone process
// (cmd/spqworker) or as a loopback server inside tests and benches.
type WorkerNode struct {
	listenAddr string
	slots      int
	ln         net.Listener

	mu    sync.Mutex
	e     *WorkerEnv
	conns map[net.Conn]struct{}
}

// StartWorker listens on addr (e.g. "127.0.0.1:0") and serves task
// execution with the given concurrent slot capacity.
func StartWorker(addr string, slots int) (*WorkerNode, error) {
	if slots <= 0 {
		slots = 1
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: worker listen: %w", err)
	}
	w := &WorkerNode{listenAddr: ln.Addr().String(), slots: slots, ln: ln, conns: make(map[net.Conn]struct{})}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", &WorkerService{w: w}); err != nil {
		ln.Close()
		return nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			w.mu.Lock()
			w.conns[conn] = struct{}{}
			w.mu.Unlock()
			go func() {
				srv.ServeConn(conn)
				w.mu.Lock()
				delete(w.conns, conn)
				w.mu.Unlock()
			}()
		}
	}()
	return w, nil
}

// Addr returns the worker's listen address.
func (w *WorkerNode) Addr() string { return w.ln.Addr().String() }

// attach binds the worker to a master, building a fresh environment over
// an RPC transport to the master's callback listener.
func (w *WorkerNode) attach(masterAddr, name string) error {
	client, err := rpc.Dial("tcp", masterAddr)
	if err != nil {
		return fmt.Errorf("mapreduce: worker dial master %s: %w", masterAddr, err)
	}
	env := NewWorkerEnv(name, &rpcRemoteFS{client: client})
	w.mu.Lock()
	old := w.e
	w.e = env
	w.mu.Unlock()
	if old != nil {
		if rf, ok := old.FS.(*rpcRemoteFS); ok {
			rf.client.Close()
		}
	}
	return nil
}

// env returns the worker's current environment (nil before any attach).
func (w *WorkerNode) env() *WorkerEnv {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.e
}

// Stop kills the worker server: the listener closes and every open
// connection drops, failing in-flight RPCs — the loopback equivalent of
// killing the process.
func (w *WorkerNode) Stop() {
	w.ln.Close()
	w.mu.Lock()
	conns := w.conns
	w.conns = make(map[net.Conn]struct{})
	e := w.e
	w.mu.Unlock()
	for c := range conns {
		c.Close()
	}
	if e != nil {
		if rf, ok := e.FS.(*rpcRemoteFS); ok {
			rf.client.Close()
		}
	}
}

// rpcRemoteFS implements RemoteFS over the worker's client connection to
// the master. Every call carries the control-plane deadline: a master
// that stops answering fails the running task attempt (transiently — the
// orchestrator retries it) instead of hanging the worker slot forever.
type rpcRemoteFS struct{ client *rpc.Client }

func (r *rpcRemoteFS) Fetch(name string) ([]byte, error) {
	var reply FetchReply
	if err := callWithTimeout(r.client, "Master.Fetch", &FetchArgs{Name: name}, &reply, ctrlCallTimeout); err != nil {
		return nil, err
	}
	return reply.Data, nil
}

func (r *rpcRemoteFS) Store(name string, data []byte) error {
	return callWithTimeout(r.client, "Master.Store", &StoreArgs{Name: name, Data: data}, &StoreReply{}, ctrlCallTimeout)
}
