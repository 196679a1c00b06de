package mapreduce

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"spq/internal/dfs"
)

// RemoteJob is a job reconstructed on a worker process from its wire
// form: it runs whole task attempts from self-describing descriptors,
// reading input through the task's I/O context and returning serialized
// side effects (shuffle run references, encoded output, counter deltas).
type RemoteJob interface {
	RunMapTask(io *TaskIO, d *TaskDesc) (*TaskResult, error)
	RunReduceTask(io *TaskIO, d *TaskDesc) (*TaskResult, error)
}

// jobKinds is the registry of worker-side job builders, keyed by
// WireJob.Kind.
var jobKinds sync.Map // string -> func([]byte, *WorkerEnv) (RemoteJob, error)

// RegisterJobKind registers a worker-side builder that reconstructs a
// runnable job from its serialized spec. Packages defining remotable jobs
// register their kinds in an init function, so every worker process that
// links them can execute their tasks.
func RegisterJobKind(kind string, build func(spec []byte, env *WorkerEnv) (RemoteJob, error)) {
	jobKinds.Store(kind, build)
}

// buildRemoteJob reconstructs the job a descriptor belongs to.
func buildRemoteJob(d *TaskDesc, env *WorkerEnv) (RemoteJob, error) {
	v, ok := jobKinds.Load(d.JobKind)
	if !ok {
		return nil, Permanent(fmt.Errorf("mapreduce: unknown job kind %q (not linked into this worker?)", d.JobKind))
	}
	return v.(func([]byte, *WorkerEnv) (RemoteJob, error))(d.JobSpec, env)
}

// RemoteFS is the transport a worker reads and writes master-side files
// through. The RPC worker implements it with calls back to the master;
// tests may implement it directly over a shared *dfs.FileSystem.
type RemoteFS interface {
	// Fetch reads a whole file from the master DFS.
	Fetch(name string) ([]byte, error)
	// Store publishes a file (a shuffle run) into the master DFS.
	Store(name string, data []byte) error
}

// WorkerEnv is the execution environment of one worker's attachment to
// one master: the transport to the master, a write-once local mirror of
// fetched input files (input files are immutable and generation-prefixed,
// so the mirror never invalidates), a cache of reconstructed jobs keyed by
// job id, and the worker-lifetime state job kinds keep across jobs (see
// State). A new attachment starts a new environment, so nothing in it
// outlives the master file system it was read from.
type WorkerEnv struct {
	// Worker is the name the master assigned at attach time.
	Worker string
	// FS is the transport to the master's file system.
	FS RemoteFS

	mirror *dfs.FileSystem

	jobsMu sync.Mutex
	jobs   map[string]RemoteJob

	stateMu sync.Mutex
	state   map[string]any
}

// NewWorkerEnv builds a worker environment over the given transport.
func NewWorkerEnv(worker string, fs RemoteFS) *WorkerEnv {
	return &WorkerEnv{
		Worker: worker,
		FS:     fs,
		// One-node, unreplicated mirror: block size only shapes the
		// mirror's internal chunking, never split boundaries (references
		// carry explicit byte ranges).
		mirror: dfs.New(dfs.Config{NumNodes: 1, Replication: 1}),
		jobs:   make(map[string]RemoteJob),
		state:  make(map[string]any),
	}
}

// State returns the worker-lifetime value kept under key, creating it with
// mk on first use. Job kinds keep here what outlives one job — decoded
// blocks, data views — keyed by the kind that owns it; the value must be
// safe for the concurrent tasks of the worker. A nil environment keeps
// nothing: every call returns a fresh mk().
func (e *WorkerEnv) State(key string, mk func() any) any {
	if e == nil {
		return mk()
	}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	v, ok := e.state[key]
	if !ok {
		v = mk()
		e.state[key] = v
	}
	return v
}

// jobFor returns the reconstructed job of a descriptor, building it once
// per job id (every task of one job shares the same spec).
func (e *WorkerEnv) jobFor(d *TaskDesc) (RemoteJob, error) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	if j, ok := e.jobs[d.JobID]; ok {
		return j, nil
	}
	j, err := buildRemoteJob(d, e)
	if err != nil {
		return nil, err
	}
	e.jobs[d.JobID] = j
	return j, nil
}

// forgetJob drops a cached job reconstruction (on job completion signals;
// the cache is also naturally bounded by worker lifetime in tests).
func (e *WorkerEnv) forgetJob(jobID string) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	delete(e.jobs, jobID)
}

// RunTask executes one attempt described by d and returns its result.
func (e *WorkerEnv) RunTask(d *TaskDesc) (*TaskResult, error) {
	job, err := e.jobFor(d)
	if err != nil {
		return nil, err
	}
	io := &TaskIO{Env: e}
	if d.Kind == MapTask {
		return job.RunMapTask(io, d)
	}
	return job.RunReduceTask(io, d)
}

// TaskIO is the per-task I/O context a remote task reads and writes
// master-side data through. It meters every byte crossing the RPC
// boundary, so the task's counter deltas carry its transfer cost. It
// implements the data package's RangeReader shape (ReadRange), so
// columnar sources can read through it directly.
type TaskIO struct {
	Env   *WorkerEnv
	bytes atomic.Int64

	// finishers run when the attempt completes successfully, folding
	// late-bound instrumentation (for example columnar segment I/O stats)
	// into the attempt's counter deltas.
	finMu     sync.Mutex
	finishers []func(*Counters)
}

// Bytes returns the RPC payload bytes this task moved so far.
func (t *TaskIO) Bytes() int64 { return t.bytes.Load() }

// OnFinish registers a hook run when the attempt completes successfully,
// with the attempt's local counter registry. Split openers use it to
// attach per-attempt instrumentation whose totals are only known at the
// end (so they ride the TaskResult counter deltas back to the master).
func (t *TaskIO) OnFinish(fn func(*Counters)) {
	t.finMu.Lock()
	t.finishers = append(t.finishers, fn)
	t.finMu.Unlock()
}

// ReadRange reads [off, off+n) of a master file through the worker's local
// mirror, fetching the whole file from the master on first use; later
// tasks hit the mirror.
func (t *TaskIO) ReadRange(file string, off int64, n int) ([]byte, error) {
	m := t.Env.mirror
	if !m.Exists(file) {
		data, err := t.Env.FS.Fetch(file)
		if err != nil {
			return nil, err
		}
		t.bytes.Add(int64(len(data)))
		if err := m.Create(file, data); err != nil && !errors.Is(err, dfs.ErrExists) {
			// ErrExists means a concurrent task of this worker fetched the
			// same file first; the mirror copy is identical (files are
			// write-once master-side).
			return nil, err
		}
	}
	return m.ReadRange(file, off, n)
}

// Fetch reads a master file without mirroring it (shuffle runs are read
// once by exactly one reduce task).
func (t *TaskIO) Fetch(name string) ([]byte, error) {
	data, err := t.Env.FS.Fetch(name)
	if err != nil {
		return nil, err
	}
	t.bytes.Add(int64(len(data)))
	return data, nil
}

// Store publishes a shuffle run into the master DFS.
func (t *TaskIO) Store(name string, data []byte) error {
	if err := t.Env.FS.Store(name, data); err != nil {
		return err
	}
	t.bytes.Add(int64(len(data)))
	return nil
}

// finish folds the task's RPC byte meter and registered finisher hooks
// into its counter deltas.
func (t *TaskIO) finish(local *Counters) {
	if b := t.bytes.Load(); b > 0 {
		local.Add(CounterExecRPCBytes, b)
	}
	t.finMu.Lock()
	fins := t.finishers
	t.finishers = nil
	t.finMu.Unlock()
	for _, fn := range fins {
		fn(local)
	}
}

// BindRemote adapts a typed job to the RemoteJob interface. The open
// callback re-opens one (non-group) split reference against the task's
// I/O context; group references are unwrapped by the adapter. Worker-side
// attempts run the same map and reduce bodies as the local executor's
// (task.go); a map attempt merges each partition's chunks into one sorted
// run in the master DFS — the same sorted-run multiset the local chunk
// shuffle hands a reduce task, so results are identical.
func BindRemote[I, K, V, O any](job *Job[I, K, V, O], open func(io *TaskIO, ref *SplitRef) (SourceSplit[I], error)) RemoteJob {
	return &remoteJob[I, K, V, O]{job: job, open: open}
}

type remoteJob[I, K, V, O any] struct {
	job  *Job[I, K, V, O]
	open func(io *TaskIO, ref *SplitRef) (SourceSplit[I], error)
}

// openRef resolves a split reference, unwrapping group references.
func (r *remoteJob[I, K, V, O]) openRef(io *TaskIO, ref *SplitRef) (SourceSplit[I], error) {
	if ref.Kind == "group" {
		return OpenGroupSplit(ref, func(member *SplitRef) (SourceSplit[I], error) {
			return r.openRef(io, member)
		})
	}
	return r.open(io, ref)
}

// shuffleFile names the run one map attempt writes for one partition.
// Attempt-qualified names keep retried attempts clear of the write-once
// semantics of the DFS; zero-padded indices make name order
// deterministic.
func shuffleFile(jobID string, task, attempt, part int) string {
	return fmt.Sprintf("shuffle/%s/m%05d.a%02d.p%05d", jobID, task, attempt, part)
}

// sortShuffleRefs orders runs by file name: zero-padded (task, attempt,
// partition) indices make this the deterministic map-task order,
// independent of result arrival order.
func sortShuffleRefs(refs []ShuffleRef) {
	sort.Slice(refs, func(i, j int) bool { return refs[i].File < refs[j].File })
}

// RunMapTask implements RemoteJob: run the shared map body over the
// referenced split, then merge each non-empty partition's sorted chunks
// into one sorted run published in the master DFS.
func (r *remoteJob[I, K, V, O]) RunMapTask(io *TaskIO, d *TaskDesc) (*TaskResult, error) {
	job := r.job
	switch {
	case d.Split == nil:
		return nil, Permanent(fmt.Errorf("mapreduce: job %q: map task %d shipped without a split reference", job.Name, d.Task))
	case job.KeyCodec == nil || job.ValueCodec == nil:
		return nil, Permanent(fmt.Errorf("mapreduce: job %q: remote execution requires Key/ValueCodec", job.Name))
	}
	local := NewCounters()
	ctx := newTaskContext(MapTask, d.Task, d.Attempt, io.Env.Worker, local)

	split, err := r.openRef(io, d.Split)
	if err != nil {
		return nil, err
	}
	if d.NumReducers <= 0 || d.NumReducers != job.NumReducers {
		// The descriptor's count sizes the task's partition tables, so it
		// must be the one the job was built with, never a count off the
		// wire alone.
		return nil, Permanent(fmt.Errorf("mapreduce: job %q: map task %d shipped with %d reducers, the job has %d", job.Name, d.Task, d.NumReducers, job.NumReducers))
	}
	chunks, err := mapBody(job, split, d.NumReducers, ctx, neverStop)
	if err != nil {
		return nil, err
	}

	var refs []ShuffleRef
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	for p, cs := range chunks {
		if len(cs) == 0 {
			continue
		}
		buf.Reset()
		w.Reset(&buf)
		records, err := encodePairs(w, mergeChunks(job.Less, cs), job.KeyCodec, job.ValueCodec)
		if err != nil {
			return nil, err
		}
		name := shuffleFile(d.JobID, d.Task, d.Attempt, p)
		data := append([]byte(nil), buf.Bytes()...)
		if err := io.Store(name, data); err != nil {
			return nil, err
		}
		refs = append(refs, ShuffleRef{File: name, Part: p, Records: records, Bytes: int64(len(data))})
		local.Add(CounterShuffleChunks, 1)
		local.Add(CounterShuffleBytes, int64(len(data)))
	}
	io.finish(local)
	return &TaskResult{Worker: io.Env.Worker, Counters: local.Snapshot(), Shuffle: refs}, nil
}

// RunReduceTask implements RemoteJob: fetch and decode the partition's
// sorted runs, run the shared reduce body over them and return the
// gob-encoded output.
func (r *remoteJob[I, K, V, O]) RunReduceTask(io *TaskIO, d *TaskDesc) (*TaskResult, error) {
	job := r.job
	local := NewCounters()
	ctx := newTaskContext(ReduceTask, d.Task, d.Attempt, io.Env.Worker, local)

	chunks := make([][]Pair[K, V], 0, len(d.Shuffle))
	for _, ref := range d.Shuffle {
		data, err := io.Fetch(ref.File)
		if err != nil {
			return nil, err
		}
		pairs, err := decodePairs(data, ref.Records, job.KeyCodec, job.ValueCodec)
		if err != nil {
			// A corrupt run decodes identically on every attempt.
			return nil, Permanent(fmt.Errorf("mapreduce: job %q: shuffle run %s: %w", job.Name, ref.File, err))
		}
		chunks = append(chunks, pairs)
	}
	out, err := reduceBody(job, chunks, local, ctx, neverStop)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		return nil, Permanent(fmt.Errorf("mapreduce: job %q: encode reduce output: %w", job.Name, err))
	}
	io.finish(local)
	return &TaskResult{Worker: io.Env.Worker, Counters: local.Snapshot(), Output: buf.Bytes()}, nil
}

// encodePairs writes a sorted stream as one shuffle run and returns its
// record count.
func encodePairs[K, V any](w *bufio.Writer, s stream[K, V], kc *Codec[K], vc *Codec[V]) (int, error) {
	records := 0
	for {
		p, ok, err := s.next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return records, w.Flush()
		}
		if err := kc.Encode(w, p.Key); err != nil {
			return 0, err
		}
		if err := vc.Encode(w, p.Value); err != nil {
			return 0, err
		}
		records++
	}
}

// decodePairs decodes a shuffle run back into its sorted pair slice. Both
// arguments come off the wire — data from the DFS, records from the task
// descriptor — and a worker must survive any value of either: a record
// encodes to at least one byte, so a count that is negative or exceeds
// len(data) is rejected before it sizes an allocation, and bytes left over
// after the last record mean the count and the run disagree.
func decodePairs[K, V any](data []byte, records int, kc *Codec[K], vc *Codec[V]) ([]Pair[K, V], error) {
	if records < 0 || records > len(data) {
		return nil, fmt.Errorf("impossible record count %d for %d bytes", records, len(data))
	}
	src := bytes.NewReader(data)
	r := bufio.NewReader(src)
	pairs := make([]Pair[K, V], 0, records)
	for i := 0; i < records; i++ {
		k, err := kc.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("record %d key: %w", i, err)
		}
		v, err := vc.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("record %d value: %w", i, err)
		}
		pairs = append(pairs, Pair[K, V]{Key: k, Value: v})
	}
	if rest := src.Len() + r.Buffered(); rest > 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d records", rest, records)
	}
	return pairs, nil
}

// decodeOutput decodes a remote reduce task's gob-encoded output slice.
func decodeOutput[O any](data []byte) ([]O, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var out []O
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}
