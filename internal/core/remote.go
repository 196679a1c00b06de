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
	// Gen is the storage generation of the snapshot the query reads; it
	// scopes worker-side decoded-block caching exactly like the engine's
	// segment cache keys.
	Gen uint64
}

// querySpec is the serialized form of one SPQ query job: everything a
// worker needs to rebuild the job through buildJob. Keyword ids are
// master-dictionary ids — the same id space the sealed files carry.
type querySpec struct {
	Alg                 int
	K                   int
	Radius              float64
	Mode                int
	Keywords            []uint32
	Size                int
	Bounds              geo.Rect
	GridN               int
	NumReducers         int
	DisableKeywordPrune bool
	Gen                 uint64
}

// encodeQuerySpec serializes the job parameters for the wire.
func encodeQuerySpec(alg Algorithm, q Query, opts Options) ([]byte, error) {
	s := querySpec{
		Alg:                 int(alg),
		K:                   q.K,
		Radius:              q.Radius,
		Mode:                int(q.Mode),
		Keywords:            q.Keywords,
		Size:                q.Size,
		Bounds:              opts.Bounds,
		GridN:               opts.GridN,
		NumReducers:         opts.NumReducers,
		DisableKeywordPrune: opts.DisableKeywordPrune,
		Gen:                 opts.Wire.Gen,
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

// buildWireJob reconstructs an SPQ query job on a worker process. The job
// goes through the same buildJob as the orchestrator's, over the same
// grid geometry (the spec carries the orchestrator's padded bounds), so a
// task attempt computes exactly what it would have in-process.
func buildWireJob(spec []byte, env *mapreduce.WorkerEnv) (mapreduce.RemoteJob, error) {
	var s querySpec
	if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&s); err != nil {
		return nil, mapreduce.Permanent(fmt.Errorf("core: decode query spec: %w", err))
	}
	q := Query{K: s.K, Radius: s.Radius, Keywords: text.KeywordSet(s.Keywords), Size: s.Size, Mode: ScoringMode(s.Mode)}
	if err := q.Validate(); err != nil {
		return nil, mapreduce.Permanent(err)
	}
	opts := Options{
		Bounds:              s.Bounds,
		GridN:               s.GridN,
		NumReducers:         s.NumReducers,
		DisableKeywordPrune: s.DisableKeywordPrune,
	}
	g := grid.New(s.Bounds, opts.gridN(), opts.gridN())
	job, err := buildJob(Algorithm(s.Alg), g, q, opts, CellKeyPartition)
	if err != nil {
		return nil, mapreduce.Permanent(err)
	}

	// Job-scoped worker state: decoded column blocks are cached across the
	// job's tasks (released with the job). The blocks carry the master's
	// interned keyword ids, so a worker needs no dictionary.
	blocks := data.NewBlockCache(0)
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
		st, ok := segStats[io]
		if !ok {
			st = &data.SegIOStats{}
			segStats[io] = st
			io.OnFinish(func(c *mapreduce.Counters) {
				read, dec := st.BytesRead.Load(), st.BytesDecoded.Load()
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
		return st
	}

	open := func(io *mapreduce.TaskIO, ref *mapreduce.SplitRef) (mapreduce.SourceSplit[data.Object], error) {
		if ref.Kind != "col" {
			return nil, mapreduce.Permanent(fmt.Errorf("core: unknown split kind %q", ref.Kind))
		}
		in := &data.ColInput{R: io, Cache: blocks, Gen: s.Gen, IO: segStatsFor(io)}
		return in.OpenRef(ref)
	}
	return mapreduce.BindRemote(job, open), nil
}
