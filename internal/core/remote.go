package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// WireKind is the job-kind identifier SPQ query jobs register under; any
// worker process linking this package can execute their tasks.
const WireKind = "spq.query"

// WireInfo is what the engine must tell Run about the sealed storage for
// the job to be reconstructible on a worker. Split references are
// self-describing column-block selections, so only the facts a worker
// cannot read from the references themselves travel here.
type WireInfo struct {
	// Gen is the storage generation of the snapshot the query reads. It
	// keys a worker's decoded blocks and data views exactly like the
	// engine's segment and view caches, so neither can go stale: a
	// generation's files are write-once.
	Gen uint64
	// DataBlocks names the DFS block list of every sealed data block of
	// generation Gen (see data.BlockListFileName), and the job's source
	// leaves those blocks out: a shipped reduce task serves its cell's
	// sealed data objects from a data view its worker builds once from the
	// list and keeps for later jobs of the same generation and grid. The
	// job then shuffles only features.
	DataBlocks string
}

// querySpec is the serialized form of one SPQ query job: everything a
// worker needs to rebuild the job through buildJob. Keyword ids are
// master-dictionary ids — the same id space the sealed files carry.
type querySpec struct {
	Alg         int
	K           int
	Radius      float64
	Mode        int
	Keywords    []uint32
	Size        int
	Bounds      geo.Rect
	GridN       int
	NumReducers int
	Gen         uint64
	DataBlocks  string
}

// encodeQuerySpec serializes the job parameters for the wire.
func encodeQuerySpec(alg Algorithm, q Query, opts Options) ([]byte, error) {
	s := querySpec{
		Alg:         int(alg),
		K:           q.K,
		Radius:      q.Radius,
		Mode:        int(q.Mode),
		Keywords:    q.Keywords,
		Size:        q.Size,
		Bounds:      opts.Bounds,
		GridN:       opts.GridN,
		NumReducers: opts.NumReducers,
		Gen:         opts.Wire.Gen,
		DataBlocks:  opts.Wire.DataBlocks,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("core: encode query spec: %w", err)
	}
	return buf.Bytes(), nil
}

func init() {
	mapreduce.RegisterJobKind(WireKind, buildWireJob)
}

// workerState is what a worker keeps across the SPQ query jobs of its
// attachment: decoded column blocks and data views. Both are keyed by
// storage generation, and a generation's files are write-once, so neither
// goes stale; the block cache is bounded by data.DefaultBlockCacheBytes and
// the views by DefaultViewCacheRecords.
type workerState struct {
	blocks *data.BlockCache
	views  *ViewCache
}

// stateOf returns the worker-lifetime state of env.
func stateOf(env *mapreduce.WorkerEnv) *workerState {
	return env.State(WireKind, func() any {
		return &workerState{blocks: data.NewBlockCache(0), views: NewViewCache(0)}
	}).(*workerState)
}

// buildWireJob reconstructs an SPQ query job on a worker process. The job
// goes through the same Validate and buildJob as the orchestrator's, over
// the same grid geometry (the spec carries the orchestrator's padded
// bounds), so a task attempt computes exactly what it would have
// in-process. A spec Run would reject — hostile or corrupt bytes — is a
// Permanent error, never a panic.
func buildWireJob(spec []byte, env *mapreduce.WorkerEnv) (mapreduce.RemoteJob, error) {
	var s querySpec
	if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&s); err != nil {
		return nil, mapreduce.Permanent(fmt.Errorf("core: decode query spec: %w", err))
	}
	alg := Algorithm(s.Alg)
	q := Query{K: s.K, Radius: s.Radius, Keywords: text.KeywordSet(s.Keywords), Size: s.Size, Mode: ScoringMode(s.Mode)}
	opts := Options{Bounds: s.Bounds, GridN: s.GridN, NumReducers: s.NumReducers, Wire: &WireInfo{Gen: s.Gen, DataBlocks: s.DataBlocks}}
	if err := Validate(alg, q, opts); err != nil {
		return nil, mapreduce.Permanent(err)
	}
	g := grid.New(s.Bounds, opts.gridN(), opts.gridN())
	job, err := buildJob(alg, g, q, opts)
	if err != nil {
		return nil, mapreduce.Permanent(err)
	}

	// Decoded column blocks are cached for the worker's life, across jobs.
	// The blocks carry the master's interned keyword ids, so a worker
	// needs no dictionary. A job of generation Gen means the master sealed
	// it: views of older generations serve at most queries still in flight
	// on them.
	st := stateOf(env)
	st.views.Retire(s.Gen)
	// Per-attempt segment I/O stats: one SegIOStats per TaskIO, folded
	// into the attempt's counter deltas when it finishes — so a worker's
	// columnar reads ride TaskResult.Counters back to the master instead
	// of vanishing (only a successful attempt is absorbed, so counts never
	// double). The per-worker breakdown rides
	// under the same names with a "."+worker suffix.
	var segMu sync.Mutex
	segStats := make(map[*mapreduce.TaskIO]*data.SegIOStats)
	segStatsFor := func(io *mapreduce.TaskIO) *data.SegIOStats {
		segMu.Lock()
		defer segMu.Unlock()
		ss, ok := segStats[io]
		if !ok {
			ss = &data.SegIOStats{}
			segStats[io] = ss
			io.OnFinish(func(c *mapreduce.Counters) {
				read, dec := ss.BytesRead.Load(), ss.BytesDecoded.Load()
				c.Add(data.CounterSegBytesRead, read)
				c.Add(data.CounterSegBytesDecoded, dec)
				if w := io.Env.Worker; w != "" {
					c.Add(data.CounterSegBytesRead+"."+w, read)
					c.Add(data.CounterSegBytesDecoded+"."+w, dec)
				}
				segMu.Lock()
				delete(segStats, io)
				segMu.Unlock()
			})
		}
		return ss
	}

	open := func(io *mapreduce.TaskIO, ref *mapreduce.SplitRef) (mapreduce.SourceSplit[data.Object], error) {
		if ref.Kind != "col" {
			return nil, mapreduce.Permanent(fmt.Errorf("core: unknown split kind %q", ref.Kind))
		}
		in := &data.ColInput{R: io, Cache: st.blocks, Gen: s.Gen, IO: segStatsFor(io)}
		return in.OpenRef(ref)
	}
	// The view is resolved by the first reduce task that needs it, never by
	// a map task: those read features only.
	withView := func(io *mapreduce.TaskIO) (mapreduce.RemoteJob, error) {
		key := ViewKey{Gen: s.Gen, GridN: opts.gridN(), Bounds: s.Bounds}
		built := false
		v, err := st.views.GetOrBuild(key, func() (*DataView, error) {
			built = true
			raw, err := io.Fetch(s.DataBlocks)
			if err != nil {
				return nil, err
			}
			cells, err := data.DecodeBlockList(raw)
			if err != nil {
				return nil, mapreduce.Permanent(fmt.Errorf("core: %s: %w", s.DataBlocks, err))
			}
			return BuildDataView(g, &data.ColInput{R: io, Cells: cells, Cache: st.blocks, Gen: s.Gen, IO: segStatsFor(io)})
		})
		if err != nil {
			return nil, err
		}
		if built {
			io.OnFinish(func(c *mapreduce.Counters) { c.Add(CounterViewMiss, 1) })
		}
		vopts := opts
		vopts.DataView = v
		job, err := buildJob(alg, g, q, vopts)
		if err != nil {
			return nil, mapreduce.Permanent(err)
		}
		return mapreduce.BindRemote(job, open), nil
	}
	return &viewJob{RemoteJob: mapreduce.BindRemote(job, open), withView: withView}, nil
}

// viewJob is a shipped job whose sealed data objects the worker serves
// from its own data view: map tasks run the job as built, and each reduce
// task runs it over the worker's view of the job's generation and grid.
type viewJob struct {
	mapreduce.RemoteJob
	withView func(io *mapreduce.TaskIO) (mapreduce.RemoteJob, error)
}

// RunReduceTask implements mapreduce.RemoteJob. A task without shuffle
// runs has no groups, and so needs no view.
func (j *viewJob) RunReduceTask(io *mapreduce.TaskIO, d *mapreduce.TaskDesc) (*mapreduce.TaskResult, error) {
	if len(d.Shuffle) == 0 {
		return j.RemoteJob.RunReduceTask(io, d)
	}
	job, err := j.withView(io)
	if err != nil {
		return nil, err
	}
	return job.RunReduceTask(io, d)
}
