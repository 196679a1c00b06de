package spq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/plan"
	"spq/internal/text"
)

// Storage selects where the engine keeps its datasets.
type Storage int

// Storage modes.
const (
	// StorageDFSBinary stores objects in the simulated distributed file
	// system as SPQ3 compressed columnar segments: each sealed cell is
	// written as density-sized column blocks (delta-varint ids, xor-delta
	// bit-packed coordinates, dictionary-coded keyword postings) with
	// per-block zone maps (bounding box, record count, keyword bloom) in
	// the manifest, so the query planner prunes inside cells and the reader
	// decodes only surviving blocks — straight into dense, cache-shared
	// column buffers. This is the full reproduction of the paper's
	// Hadoop/HDFS stack (replicated blocks, repair, worker processes) and
	// the default.
	StorageDFSBinary Storage = iota
	// StorageMemory keeps every sealed cell in memory as the column blocks
	// StorageDFSBinary stores, never encoded: the same zone maps, planner
	// pruning, block-at-a-time map and data views, minus the DFS, the
	// decode and the segment cache. Sufficient when only the algorithms
	// (not the storage substrate) matter; its jobs never ship to workers.
	StorageMemory
)

// Per-query segment I/O counters, emitted on SPQ3 storage
// (see Report.Counters). Together they quantify the storage cost of a
// query: selected is the plan's compressed footprint, read what actually
// hit storage (cache hits read nothing), decoded the in-memory size
// produced from those reads.
const (
	// CounterSegBytesRead is the compressed frame bytes this query
	// fetched from storage for its columnar block reads. On a distributed
	// engine it totals the master's and every worker's reads; the
	// per-worker share additionally appears under the same name with a
	// "."+worker suffix.
	CounterSegBytesRead = data.CounterSegBytesRead
	// CounterSegBytesDecoded is the decoded in-memory size of the blocks
	// produced from those reads (master + workers on a distributed
	// engine, with the same per-worker breakdown).
	CounterSegBytesDecoded = data.CounterSegBytesDecoded
	// CounterSegBytesSelected is the stored (compressed) size of every
	// block the query selected, independent of segment-cache warmth —
	// the deterministic quantity for comparing segment formats.
	CounterSegBytesSelected = "spq.seg.bytes.selected"
)

// DefaultSealGridN is the default seal grid edge: Seal partitions the
// datasets into DefaultSealGridN² per-cell files (plus a manifest) unless
// Config.SealGridN overrides it.
const DefaultSealGridN = 32

// Config parameterizes an Engine.
type Config struct {
	// Nodes is the number of DFS DataNodes (default 16, the paper's
	// cluster size).
	Nodes int
	// MapSlots and ReduceSlots bound task concurrency (default 8 each).
	MapSlots    int
	ReduceSlots int
	// BlockSize is the DFS block size in bytes (default 256 KiB).
	BlockSize int
	// Replication is the DFS replication factor (default 3).
	Replication int
	// Storage selects DFS-resident SPQ3 segments (the default) or the same
	// column blocks kept in memory.
	Storage Storage
	// SealGridN is the edge size of the seal grid: Seal writes the
	// datasets as per-cell files over a SealGridN x SealGridN grid with a
	// manifest of per-cell statistics, which is what the query planner
	// (WithAutoPlan) prunes against. Default DefaultSealGridN.
	SealGridN int
	// QueryCache bounds the engine's query result cache, in cached
	// reports. Repeated queries against an unchanged storage generation
	// are served from the cache without re-running the MapReduce job;
	// entries are keyed on the generation — bumped by every seal, append
	// batch and compaction — and evicted LRU. Zero selects
	// DefaultQueryCacheSize; a negative value disables caching entirely.
	QueryCache int
	// SegmentCache bounds the engine's decoded-segment cache, in bytes of
	// decoded columns. Columnar reads check it before touching storage: a
	// hot block — clustered query traffic revisiting the same cells —
	// skips both the ranged read and the decode. Entries are keyed on
	// (generation, cell file, block), so compactions invalidate by
	// construction, mirroring the query cache. Zero selects
	// data.DefaultBlockCacheBytes; a negative value disables the cache.
	// Only SPQ3 storage uses it.
	SegmentCache int
	// CompactAfter bounds the in-memory delta of a sealed engine, in
	// records: once an append batch leaves at least CompactAfter records
	// in the delta, the engine compacts automatically — re-sealing
	// base+delta into a new storage generation (see Compact). Zero selects
	// DefaultCompactAfter; a negative value disables automatic compaction
	// (Compact can still be called explicitly).
	CompactAfter int
	// MaxAttempts bounds how many times each map/reduce task is executed
	// before its job fails: a task may fail up to MaxAttempts-1 times (on
	// injected faults, unreadable replicas, ...) and still complete. Zero
	// selects DefaultMaxAttempts; negative disables retries (one attempt).
	MaxAttempts int
	// RetryBackoff is the base delay of the capped exponential backoff
	// between task attempts (doubled per failure, capped at 100ms). Zero
	// selects a small default; negative disables backoff entirely.
	RetryBackoff time.Duration
	// Faults optionally injects deterministic, seeded faults into the DFS:
	// transient read errors, replica corruption and node crash schedules.
	// Nil (the default) runs a healthy cluster. See FaultPlan.
	Faults *FaultPlan
	// Seed drives DFS block placement.
	Seed int64
	// Workers lists the listen addresses of worker processes (cmd/spqworker,
	// or in-process mapreduce.StartWorker servers). When non-empty the
	// engine starts an RPC master, attaches the workers and runs every
	// remotable query job on them: the master ships self-describing task
	// descriptors, workers read inputs and write shuffle intermediates
	// through the master's DFS, and lost workers have their tasks
	// re-executed on surviving ones. Jobs that cannot ship — those reading
	// resident blocks: memory storage, the uncompacted delta —
	// transparently fall back to local execution (spq.exec.fallback.local).
	// Empty (the default) runs everything in-process. Engines with workers
	// should be Closed.
	//
	// The worker set is elastic: AddWorker attaches more (or rejoins
	// crashed ones) while the engine serves, and DrainWorker detaches one
	// gracefully.
	Workers []string
}

// DefaultMaxAttempts is the per-task execution budget used when
// Config.MaxAttempts is zero: one initial attempt plus up to two retries.
const DefaultMaxAttempts = 3

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.MapSlots <= 0 {
		c.MapSlots = 8
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = 8
	}
	if c.SealGridN <= 0 {
		c.SealGridN = DefaultSealGridN
	}
	if c.QueryCache == 0 {
		c.QueryCache = DefaultQueryCacheSize
	}
	if c.CompactAfter == 0 {
		c.CompactAfter = DefaultCompactAfter
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = DefaultMaxAttempts
	} else if c.MaxAttempts < 0 {
		c.MaxAttempts = 1
	}
	return c
}

// snapshot is the immutable read-path view of the engine's storage: the
// sealed base generation plus — under generational ingestion — the
// in-memory delta of records appended since. A new snapshot is published
// atomically by every seal, committed append batch and compaction; queries
// load it without taking the engine mutex, so N concurrent queries proceed
// lock-free over the shared state, and a query in flight across a
// compaction simply finishes on the snapshot it started with.
type snapshot struct {
	// gen is the storage generation the snapshot belongs to. It keys the
	// query cache: any mutation bumps it, making every older cached report
	// unreachable without an explicit flush.
	gen      uint64
	manifest *data.Manifest
	bounds   geo.Rect
	// resident holds the sealed cells' blocks by cell name under memory
	// storage; nil under DFS storage.
	resident map[string][]*data.ColumnBlock
	// delta is the view of records appended after the base sealed; nil
	// when the delta is empty.
	delta *deltaState
}

// Engine owns a simulated cluster (DFS + worker slots), a keyword
// dictionary, and the loaded datasets. Once sealed it is safe for full
// concurrency: any number of goroutines may query while others append
// (appends serialize among themselves on the engine mutex; queries never
// take it).
type Engine struct {
	cfg     Config
	fs      *dfs.FileSystem
	cluster *mapreduce.Cluster
	dict    *text.Dict
	cache   *queryCache // nil when Config.QueryCache < 0
	// segCache is the decoded-segment cache of SPQ3 storage; nil when
	// disabled or unused by the storage mode.
	segCache *data.BlockCache
	// viewCache caches one data view per (base generation, query grid) over
	// every sealed data block (see core.DataView): in-process queries shuffle
	// only feature records and the delta's data records, and reduce against
	// the view's dense per-cell columns.
	viewCache *core.ViewCache

	// exec is the RPC executor when Config.Workers is set; execErr holds a
	// worker attach failure, surfaced by the first query rather than lost
	// (NewEngine does not return errors).
	exec    *mapreduce.RPCExecutor
	execErr error

	// snap is the published read-path snapshot; nil until the first seal.
	// Queries load it lock-free; e.mu is only taken to seal.
	snap atomic.Pointer[snapshot]

	// Lifecycle: closed flips once under lifeMu and stays; inflight counts
	// queries between beginQuery/endQuery so Close can drain them. They are
	// separate from e.mu because queries never take e.mu (by design), yet
	// Close must still fence them.
	lifeMu   sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	mu      sync.Mutex
	objects []data.Object
	nData   int
	nFeats  int
	// dataIDs and featIDs track the loaded object ids of each dataset, so
	// duplicate ids are rejected at load time (see AddData). They span the
	// sealed base and the delta: an append can never shadow a sealed id.
	dataIDs map[uint64]struct{}
	featIDs map[uint64]struct{}
	bounds  geo.Rect
	sealed  bool
	gen     uint64
	fileSeq int

	// Sealed state: the manifest of the partitioned storage layout, plus
	// — under StorageMemory — the cells' resident blocks, the only copy of
	// the sealed base.
	manifest *data.Manifest
	resident map[string][]*data.ColumnBlock

	// delta holds the records appended after the last seal or compaction,
	// in append order. It is append-only between compactions: published
	// snapshots hold fixed-length prefixes of it (see deltaState).
	delta []data.Object
}

// NewEngine creates an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	fs := dfs.New(dfs.Config{
		NumNodes:    cfg.Nodes,
		BlockSize:   cfg.BlockSize,
		Replication: cfg.Replication,
		Seed:        cfg.Seed,
		Faults:      cfg.Faults,
	})
	e := &Engine{
		cfg:       cfg,
		fs:        fs,
		cluster:   mapreduce.NewCluster(fs, cfg.MapSlots, cfg.ReduceSlots),
		dict:      text.NewDict(),
		viewCache: core.NewViewCache(0),
		dataIDs:   make(map[uint64]struct{}),
		featIDs:   make(map[uint64]struct{}),
		bounds:    geo.Rect{MinX: 1, MaxX: -1}, // empty
	}
	if cfg.QueryCache > 0 {
		e.cache = newQueryCache(cfg.QueryCache)
	}
	if cfg.Storage == StorageDFSBinary && cfg.SegmentCache >= 0 {
		e.segCache = data.NewBlockCache(int64(cfg.SegmentCache))
	}
	if len(cfg.Workers) > 0 {
		exec, err := mapreduce.NewRPCExecutor(fs, cfg.Workers)
		if err != nil {
			e.execErr = fmt.Errorf("spq: attach workers: %w", err)
		} else {
			e.exec = exec
			e.cluster.Executor = exec
			if cfg.Faults != nil {
				exec.SetChurn(cfg.Faults)
			}
		}
	}
	return e
}

// Distributed reports whether the engine dispatches query jobs to worker
// processes (Config.Workers attached successfully).
func (e *Engine) Distributed() bool { return e.exec != nil }

// Workers returns the names of the attached worker processes, in
// attachment order; nil for an in-process engine. Per-worker task counts
// appear in query reports under spq.exec.tasks.<name>.
func (e *Engine) Workers() []string {
	if e.exec == nil {
		return nil
	}
	return e.exec.Workers()
}

// ErrNotDistributed rejects membership operations on engines that run
// everything in-process (no Config.Workers).
var ErrNotDistributed = errors.New("spq: engine has no distributed executor")

// AddWorker attaches the worker process listening at addr to a running
// distributed engine under the given name ("" auto-assigns the next
// worker-N) and returns the registered name. A name that previously
// belonged to a lost or drained worker rejoins in place — its lanes
// route to the fresh connection immediately; a brand-new worker starts
// executing tasks from the next query job on. Workers may equivalently
// join themselves via the master's Join RPC (spqworker -master).
func (e *Engine) AddWorker(addr, name string) (string, error) {
	if e.exec == nil {
		return "", ErrNotDistributed
	}
	return e.exec.AddWorker(addr, name)
}

// DrainWorker gracefully detaches a named worker from a running
// distributed engine: new tasks route around it immediately, in-flight
// tasks finish, then the connection closes. The worker process keeps
// running and may rejoin later (AddWorker with the same name). Draining
// the last live worker is refused.
func (e *Engine) DrainWorker(name string) error {
	if e.exec == nil {
		return ErrNotDistributed
	}
	return e.exec.DrainWorker(name)
}

// MasterAddr returns the listen address of the engine's RPC master ("",
// for in-process engines). Worker processes started with
// `spqworker -master <addr>` join it on their own.
func (e *Engine) MasterAddr() string {
	if e.exec == nil {
		return ""
	}
	return e.exec.MasterAddr()
}

// Close shuts the engine down: it waits for in-flight queries to finish,
// then releases the distributed-execution resources (the RPC master stops
// and worker connections drop; worker processes themselves keep running —
// their lifecycle belongs to whoever started them). Close is idempotent
// and safe to call concurrently with queries: calls racing a Close, and
// every query submitted afterwards, fail with ErrClosed instead of
// touching torn-down state.
func (e *Engine) Close() error {
	e.lifeMu.Lock()
	if e.closed {
		e.lifeMu.Unlock()
		return nil
	}
	e.closed = true
	e.lifeMu.Unlock()
	e.inflight.Wait()
	if e.exec == nil {
		return nil
	}
	return e.exec.Close()
}

// beginQuery registers one in-flight query, failing with ErrClosed once
// Close has begun. Callers that receive nil must call endQuery.
func (e *Engine) beginQuery() error {
	e.lifeMu.Lock()
	defer e.lifeMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.inflight.Add(1)
	return nil
}

func (e *Engine) endQuery() { e.inflight.Done() }

// AddData loads data objects (the objects ranked and returned by queries).
//
// Every object is validated at load time: coordinates must be finite (a
// NaN or infinite coordinate used to surface only at seal time, as an
// opaque JSON encoding error that could wedge the engine mid-seal), and
// ids must be unique within the data dataset — a duplicate id would
// otherwise silently yield duplicate top-k entries, so duplicates are
// rejected outright rather than deduplicated (data and feature ids live
// in separate namespaces; a data object may share an id with a feature).
// The whole batch is validated before any of it is loaded, so a rejected
// call leaves the engine unchanged.
//
// On a sealed engine the batch appends into the in-memory delta instead:
// validation is identical (duplicate-id checks span the sealed base and
// the delta), the records become visible to queries atomically when the
// call returns, and they are merged into sealed storage by the next
// compaction. See Compact and Config.CompactAfter. One caveat to the
// unchanged-on-error rule: if the batch itself commits but the automatic
// compaction it triggers fails, the returned error says so explicitly —
// the records ARE appended and served, so the batch must not be retried.
func (e *Engine) AddData(objs ...DataObject) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[uint64]struct{}, len(objs))
	for _, o := range objs {
		if err := e.checkLocked(data.DataObject, o.ID, o.X, o.Y, seen); err != nil {
			return err
		}
	}
	for _, o := range objs {
		e.addLocked(data.Object{Kind: data.DataObject, ID: o.ID, Loc: geo.Point{X: o.X, Y: o.Y}})
	}
	return e.commitLocked()
}

// AddFeature loads feature objects (the keyword-annotated objects that
// score data objects). Validation and sealed-engine append semantics
// follow AddData: finite coordinates, unique ids within the feature
// dataset, all-or-nothing per call.
func (e *Engine) AddFeature(feats ...Feature) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[uint64]struct{}, len(feats))
	for _, f := range feats {
		if err := e.checkLocked(data.FeatureObject, f.ID, f.X, f.Y, seen); err != nil {
			return err
		}
	}
	for _, f := range feats {
		e.addLocked(toFeatureObject(f, e.dict))
	}
	return e.commitLocked()
}

// commitLocked finishes a successful load batch. Before the first seal it
// is a no-op: records sit in the load buffer until Seal. On a sealed
// engine it publishes the post-append snapshot — appended records are
// invisible to queries until their whole batch commits, as one generation
// bump — and compacts when the delta has grown past the configured
// threshold. A compaction failure is reported but does not un-append the
// batch: the records are already durable in the (published) delta.
func (e *Engine) commitLocked() error {
	if !e.sealed {
		return nil
	}
	e.publishLocked()
	if e.cfg.CompactAfter > 0 && len(e.delta) >= e.cfg.CompactAfter {
		if err := e.compactLocked(); err != nil {
			return fmt.Errorf("spq: records appended, but automatic compaction failed: %w", err)
		}
	}
	return nil
}

// publishLocked bumps the generation and atomically swaps in a snapshot of
// the engine's current state: the sealed base plus a fixed-length view of
// the delta. In-flight queries keep the snapshot they loaded.
func (e *Engine) publishLocked() {
	e.gen++
	s := &snapshot{
		gen:      e.gen,
		manifest: e.manifest,
		bounds:   e.bounds,
		resident: e.resident,
	}
	if len(e.delta) > 0 {
		s.delta = &deltaState{objs: e.delta[:len(e.delta)]}
	}
	e.snap.Store(s)
}

// checkLocked validates one incoming object: finite coordinates and an id
// unused by its dataset (and, via seen, unused earlier in the same batch).
// Errors name the offending object so bad records in a bulk load can be
// found and fixed.
func (e *Engine) checkLocked(kind data.Kind, id uint64, x, y float64, seen map[uint64]struct{}) error {
	if !finite(x) || !finite(y) {
		return fmt.Errorf("spq: %s object %d: non-finite coordinate (%g, %g)", kind, id, x, y)
	}
	ids := e.dataIDs
	if kind == data.FeatureObject {
		ids = e.featIDs
	}
	if _, dup := ids[id]; dup {
		return fmt.Errorf("spq: duplicate %s object id %d", kind, id)
	}
	if seen != nil {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("spq: duplicate %s object id %d", kind, id)
		}
		seen[id] = struct{}{}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// addLocked appends one validated object — to the load buffer before the
// first seal, to the delta after — maintaining the dataset counts, the id
// sets and the bounds incrementally so Len and Bounds stay O(1).
func (e *Engine) addLocked(o data.Object) {
	if e.sealed {
		e.delta = append(e.delta, o)
	} else {
		e.objects = append(e.objects, o)
	}
	if o.Kind == data.DataObject {
		e.nData++
		e.dataIDs[o.ID] = struct{}{}
	} else {
		e.nFeats++
		e.featIDs[o.ID] = struct{}{}
	}
	e.growBounds(o.Loc)
}

func (e *Engine) growBounds(p geo.Point) {
	e.bounds = e.bounds.Union(geo.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
}

// Len returns the number of loaded data and feature objects. It is O(1):
// the counts are maintained as objects are loaded.
func (e *Engine) Len() (dataObjects, features int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.nData, e.nFeats
}

// Bounds returns the bounding box of the loaded objects.
func (e *Engine) Bounds() (minX, minY, maxX, maxY float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bounds.MinX, e.bounds.MinY, e.bounds.MaxX, e.bounds.MaxY
}

// baseObjectsLocked returns the objects of the sealed base generation (or
// the load buffer before the first seal): the load-order slice under DFS
// storage; under memory storage, which keeps the base only as blocks, the
// blocks read back cell by cell.
func (e *Engine) baseObjectsLocked() []data.Object {
	if e.resident == nil {
		return e.objects
	}
	objs := make([]data.Object, 0, e.manifest.TotalRecords())
	for _, cells := range [][]data.CellStats{e.manifest.Data, e.manifest.Features} {
		for _, cs := range cells {
			for _, b := range e.resident[cs.File] {
				objs = b.AppendObjects(objs)
			}
		}
	}
	return objs
}

// allObjectsLocked returns every loaded object — base plus delta. The
// returned slice may alias engine state and must not be mutated or
// retained past the lock.
func (e *Engine) allObjectsLocked() []data.Object {
	base := e.baseObjectsLocked()
	if len(e.delta) == 0 {
		return base
	}
	out := make([]data.Object, 0, len(base)+len(e.delta))
	return append(append(out, base...), e.delta...)
}

// Manifest returns the partition manifest of the sealed storage layout,
// or nil before Seal. The manifest is what the query planner prunes
// against; it is exposed for inspection and tooling.
func (e *Engine) Manifest() *data.Manifest {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.manifest
}

// Seal publishes the loaded datasets to storage (write-once files, like
// HDFS). Storage is partition-aware: objects are written as per-cell files
// over the seal grid (Config.SealGridN), with a persisted manifest
// carrying per-cell statistics — record counts, tight bounding rectangles,
// keyword summaries — that the query planner uses to skip irrelevant
// files. Query seals implicitly; calling Seal explicitly lets the caller
// observe storage errors early. Loading after Seal appends into the
// in-memory delta (see AddData and Compact) — the engine stays writable.
func (e *Engine) Seal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealLocked()
}

// sealLocked performs the first seal.
func (e *Engine) sealLocked() error {
	if e.sealed {
		return nil
	}
	if len(e.objects) == 0 {
		return fmt.Errorf("spq: no objects loaded")
	}
	return e.writeGenerationLocked(e.objects)
}

// writeGenerationLocked partitions objs over the seal grid
// (Config.SealGridN, the same for every generation), writes them as
// a fresh storage generation (new file prefix; existing files are never
// touched, so queries in flight on the previous snapshot keep reading it),
// and atomically publishes the new snapshot with an empty delta. On error
// the engine keeps serving its previous generation unchanged; any
// partially written files of the failed generation are orphaned under a
// prefix no snapshot references.
func (e *Engine) writeGenerationLocked(objs []data.Object) error {
	n := e.cfg.SealGridN
	bounds := e.bounds
	if bounds.Width() == 0 || bounds.Height() == 0 {
		// A degenerate bounding box (single point or a line of objects)
		// still needs a two-dimensional seal grid; pad it.
		bounds = bounds.Expand(1)
	}
	g := grid.New(bounds, n, n)
	prefix := fmt.Sprintf("spq-objects-%d", e.fileSeq)
	e.fileSeq++
	parts := data.PartitionObjects(g, objs)
	parts.Generation = e.gen + 1
	switch e.cfg.Storage {
	case StorageDFSBinary:
		man, err := parts.SealDFS(e.fs, prefix, e.dict)
		if err != nil {
			return fmt.Errorf("spq: seal: %w", err)
		}
		e.manifest = man
		e.objects = objs // retained: future compactions re-seal base+delta
	default:
		// The blocks are the only copy of the base; compactions read it
		// back from them.
		e.manifest, e.resident = parts.SealBlocks(prefix, e.dict)
		e.objects = nil
	}
	e.sealed = true
	e.delta = nil
	// Publish the read-path snapshot: from here on queries run lock-free
	// against this immutable view (see snapshotFor).
	e.publishLocked()
	// Queries starting from here on read this generation, so the views of
	// older ones go now rather than when the LRU budget gets to them.
	e.viewCache.Retire(e.manifest.Generation)
	return nil
}

// Compact merges the sealed base generation with the in-memory delta and
// re-seals them as one new storage generation: the delta's records gain
// partitioned cell files and manifest statistics (so the planner prunes
// them as effectively as the original load), the delta empties, and the
// new snapshot is swapped in atomically — queries already in flight finish
// on the generation they started with, and the generation bump makes every
// cached report from older generations unreachable. With an empty delta it
// is a no-op; on an engine that has never sealed it performs the first
// Seal. Old generation files are not deleted: in-flight queries may still
// be reading them (write-once storage makes this safe, at the cost of
// space until the engine is discarded).
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sealed {
		return e.sealLocked()
	}
	return e.compactLocked()
}

// compactLocked re-seals base+delta. Caller holds e.mu and has sealed.
func (e *Engine) compactLocked() error {
	if len(e.delta) == 0 {
		return nil
	}
	base := e.baseObjectsLocked()
	merged := make([]data.Object, 0, len(base)+len(e.delta))
	merged = append(append(merged, base...), e.delta...)
	return e.writeGenerationLocked(merged)
}

// Generation returns the storage generation queries are currently served
// from: 0 before the first seal, bumped by Seal, by every committed append
// batch and by Compact. The query cache is keyed on it, so a report cached
// against an older generation is never served to a newer one.
func (e *Engine) Generation() uint64 {
	if s := e.snap.Load(); s != nil {
		return s.gen
	}
	return 0
}

// DeltaLen returns the number of records currently in the in-memory delta
// — appended after the last seal or compaction and not yet compacted. 0 on
// an unsealed engine.
func (e *Engine) DeltaLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.delta)
}

// snapshotFor returns the published read-path snapshot, sealing first if
// the engine has not sealed yet. The fast path is one atomic load and no
// lock: concurrent queries on a sealed engine never serialize here.
func (e *Engine) snapshotFor() (*snapshot, error) {
	if s := e.snap.Load(); s != nil {
		return s, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.sealLocked(); err != nil {
		return nil, err
	}
	return e.snap.Load(), nil
}

// Query runs a spatial preference query and returns the ranked results.
// It is QueryContext with a background context.
func (e *Engine) Query(q Query, opts ...QueryOption) ([]Result, error) {
	return e.QueryContext(context.Background(), q, opts...)
}

// QueryContext runs a spatial preference query under ctx and returns the
// ranked results. It is the primary query entry point: canceling ctx (a
// dropped client connection, an expired deadline) aborts the query's
// map/reduce tasks promptly — queued tasks leave the admission pools
// without consuming a slot, running local tasks stop at record granularity
// — and the call returns an error wrapping both ErrCanceled and the
// context's own error. See errors.go for the full error taxonomy.
func (e *Engine) QueryContext(ctx context.Context, q Query, opts ...QueryOption) ([]Result, error) {
	rep, err := e.QueryReportContext(ctx, q, opts...)
	if err != nil {
		return nil, err
	}
	return rep.Results, nil
}

// defaultGridN is the query-time grid used when neither WithGrid nor the
// planner chooses one (the paper's configuration for small datasets).
const defaultGridN = 16

// QueryReport runs a query and additionally returns the execution metrics
// of the underlying MapReduce job. It is QueryReportContext with a
// background context.
func (e *Engine) QueryReport(q Query, opts ...QueryOption) (*Report, error) {
	return e.QueryReportContext(context.Background(), q, opts...)
}

// QueryReportContext runs a query under ctx and additionally returns the
// execution metrics of the underlying MapReduce job.
//
// Serving path: the first query seals the engine (under the engine
// mutex); every later query runs lock-free against the published
// snapshot — the sealed base plus any in-memory delta of appended
// records — consults the query cache (a repeated query returns the
// cached report, marked with the spq.cache.hit counter, without running
// a job), and draws its map/reduce tasks from the cluster-shared
// admission pools, so concurrent queries share the configured slots
// fairly instead of oversubscribing the machine.
//
// Errors wrap the sentinels of errors.go: a malformed query returns
// ErrInvalidQuery without executing anything, a query after Close returns
// ErrClosed, and a canceled or expired ctx returns ErrCanceled (also
// matching the context's own error under errors.Is).
func (e *Engine) QueryReportContext(ctx context.Context, q Query, opts ...QueryOption) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.beginQuery(); err != nil {
		return nil, err
	}
	defer e.endQuery()
	if ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	rep, err := e.queryReport(ctx, q, opts)
	if err != nil && ctx.Err() != nil {
		// Cancellation outranks whatever proximate error the teardown
		// produced; the caller asked for exactly this outcome.
		return nil, canceledErr(ctx)
	}
	return rep, err
}

// queryReport is the query execution path behind QueryReportContext.
func (e *Engine) queryReport(ctx context.Context, q Query, opts []QueryOption) (*Report, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	q.Keywords = keywordsOf(q.Keywords)
	if e.execErr != nil {
		return nil, e.execErr
	}
	cfg := queryConfig{alg: core.ESPQSco}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.gridSet && (cfg.gridN <= 0 || cfg.gridN > core.MaxGridN) {
		return nil, fmt.Errorf("%w: grid size %d, must be in [1, %d]", ErrInvalidQuery, cfg.gridN, core.MaxGridN)
	}
	if cfg.reducers > core.MaxReducers {
		return nil, fmt.Errorf("%w: reducers %d, must be at most %d", ErrInvalidQuery, cfg.reducers, core.MaxReducers)
	}
	if b := cfg.bounds; b != nil && !(finite(b.MinX) && finite(b.MinY) && finite(b.MaxX) && finite(b.MaxY)) {
		return nil, fmt.Errorf("%w: bounds %v, must be finite", ErrInvalidQuery, *b)
	}
	if !cfg.alg.SupportsMode(q.Mode) {
		return nil, fmt.Errorf("%w: field Mode = %v needs PSPQ, not %v (early termination is unsound for it)", ErrInvalidQuery, q.Mode, cfg.alg)
	}
	effective := cfg.effectiveOptions(e.cache != nil)

	// Baseline DFS fault/repair activity: the delta accumulated while this
	// query runs (failovers, quarantines, read repairs, ...) is surfaced on
	// the report as spq.fault.* / spq.dfs.repair.* counters.
	fault0 := e.fs.FaultStats()

	snap, err := e.snapshotFor()
	if err != nil {
		return nil, err
	}

	var key string
	if e.cache != nil && !cfg.noCache {
		key = cacheKey(snap.gen, q, &cfg)
		if rep, ok := e.cache.get(key); ok {
			return rep, nil
		}
	}

	bounds := snap.bounds
	if cfg.bounds != nil {
		bounds = *cfg.bounds
	}
	// A degenerate bounding box (single point or a line of objects) still
	// needs a two-dimensional grid; pad it.
	if bounds.Width() == 0 || bounds.Height() == 0 {
		pad := q.Radius
		if pad == 0 {
			pad = 1
		}
		bounds = bounds.Expand(pad)
	}
	// Query words are looked up, never interned, so queries cannot grow the
	// dictionary: a word no feature carries matches nothing and needs no
	// id, but it still counts in |q.W|.
	words := slices.Compact(slices.Sorted(slices.Values(q.Keywords)))
	cq := core.Query{K: q.K, Radius: q.Radius, Keywords: e.dict.LookupAll(words), Size: len(words), Mode: q.Mode}
	rep, err := e.execute(ctx, snap, cq, &cfg, bounds, e.planQuery(snap, q, &cfg))
	if err != nil {
		return nil, err
	}
	rep.Counters = addFaultCounters(rep.Counters, e.fs.FaultStats().Sub(fault0))
	rep.effective = effective
	return e.finishQuery(key, rep), nil
}

// physicalPlan is what one query execution does, decided in full by
// planQuery before anything runs: execute reads this value and nothing
// else about the options, the storage format or the executor.
type physicalPlan struct {
	// The input: per-cell block selections of the sealed base and the
	// delta, the data and feature halves apart.
	colsData, colsFeat []data.ColSel
	// src maps that selection block by block — minus the sealed data
	// blocks under useView.
	src mapreduce.Source[data.Object]
	// useView serves the sealed data objects from the cached data view of
	// the base generation and query grid (core.DataView) instead of the
	// shuffle.
	useView bool
	// segIO meters the segment reads of src and of a view build; nil on
	// memory storage, which reads no segments.
	segIO *data.SegIOStats
	// wire describes the snapshot to worker processes; nil in-process.
	wire            *core.WireInfo
	gridN, reducers int
	// empty marks a plan that proves the query returns nothing: no job runs.
	empty      bool
	planStats  *PlanStats // nil unless the planner pruned (WithAutoPlan)
	deltaStats *DeltaStats
	counters   map[string]int64 // spq.plan.* and spq.delta.*
}

// planQuery decides how one query executes against snapshot s. It is the
// only place that looks at the auto-plan and delta options, the storage
// mode and whether the engine is distributed. An unplanned query is the
// same plan with pruning off: every block of every cell, base and delta,
// no planner statistics.
func (e *Engine) planQuery(s *snapshot, q Query, cfg *queryConfig) *physicalPlan {
	// The delta participating in this query: records appended after the
	// base generation sealed, unless the caller opted out.
	delta := s.delta
	if cfg.noDelta {
		delta = nil
	}
	p := &physicalPlan{
		gridN:      cfg.gridN,
		reducers:   cfg.reducers,
		deltaStats: &DeltaStats{Generation: s.gen},
	}
	dataCells, featCells := s.manifest.Data, s.manifest.Features
	var deltaData, deltaFeat []data.CellStats
	var deltaResident map[string][]*data.ColumnBlock
	if delta != nil {
		// The delta cut into blocks over the manifest's seal grid (lazily,
		// once per snapshot), so its cells read and prune like sealed ones.
		cells, resident := delta.blocks(s.manifest, e.dict)
		deltaData, deltaFeat, deltaResident = cells.Data, cells.Features, resident
		p.deltaStats.Records = int64(len(delta.objs))
		p.deltaStats.RecordsSelected = p.deltaStats.Records
		p.deltaStats.Cells = len(deltaData) + len(deltaFeat)
	}
	var blocks map[string][]int // surviving blocks per cell; nil = all
	if cfg.autoPlan {
		dec := plan.PlanGenerations(s.manifest, deltaData, deltaFeat, plan.Input{
			Radius:      q.Radius,
			Keywords:    q.Keywords,
			ReduceSlots: e.cfg.ReduceSlots,
			GridN:       cfg.gridN,
			NumReducers: cfg.reducers,
		})
		dataCells, featCells, blocks = dec.Data, dec.Features, dec.Blocks
		deltaData, deltaFeat = dec.DeltaData, dec.DeltaFeatures
		p.gridN = dec.GridN
		p.reducers = dec.NumReducers
		p.deltaStats.CellsPruned = dec.Stats.DeltaCellsPruned
		p.deltaStats.RecordsSelected = dec.Stats.DeltaRecordsSelected
		p.counters = dec.Counters()
		p.planStats = newPlanStats(dec)
		p.empty = dec.Empty()
	}
	p.counters = deltaCounters(p.counters, p.deltaStats)
	if p.empty {
		return p
	}
	if p.gridN <= 0 {
		p.gridN = defaultGridN
	}
	if p.reducers <= 0 {
		// The paper's one reducer per cell is a statement about groups,
		// not tasks: an unplanned query gets the slot-derived task count
		// the planner picks, and its cells stay one group each.
		p.reducers = plan.ChooseReducers(p.gridN, e.cfg.ReduceSlots)
	}
	if e.exec != nil {
		p.wire = &core.WireInfo{Gen: s.manifest.Generation}
	}

	// One block source serves the sealed and the delta selections: SPQ3
	// blocks are fetched by ranged read through the decoded-segment cache,
	// resident ones (memory storage, the delta) are served as they are.
	// In-process queries take the data-view path: the sealed data objects
	// come from the view of the base generation and query grid, and the
	// job shuffles the delta's data records and the features only. The
	// delta overlays the view rather than disabling it — its data records
	// join their groups in-stream, beside the view cell. Distributed
	// engines skip the view: it is an in-process structure a worker cannot
	// receive. The selection is one slice, sealed data cells first, so the
	// in-stream source is the whole slice or, beside a view, its tail.
	cols := make([]data.ColSel, 0, len(dataCells)+len(deltaData)+len(featCells)+len(deltaFeat))
	cols = selectCells(cols, dataCells, blocks, s.resident)
	nSealed := len(cols)
	cols = selectCells(cols, deltaData, blocks, deltaResident)
	n := len(cols)
	cols = selectCells(cols, featCells, blocks, s.resident)
	cols = selectCells(cols, deltaFeat, blocks, deltaResident)
	p.colsData, p.colsFeat = cols[:n:n], cols[n:]
	p.useView = e.exec == nil
	if p.useView {
		cols = cols[nSealed:]
	}
	if s.manifest.Format == data.FormatCompressed {
		p.segIO = &data.SegIOStats{}
	}
	in := data.NewColInput(e.fs, cols, e.segCache, s.manifest.Generation)
	in.IO = p.segIO
	// Column blocks are small, and one map task per block would drown the
	// job in task overhead, so consecutive blocks are grouped down to a few
	// per map slot.
	p.src = mapreduce.Coalesce[data.Object](in, e.cfg.MapSlots*4)
	return p
}

// execute runs plan p: nothing for a provably empty plan, otherwise one
// MapReduce job over p.src, with the data half served by the cached view
// when the plan says so.
func (e *Engine) execute(ctx context.Context, s *snapshot, cq core.Query, cfg *queryConfig, bounds geo.Rect, p *physicalPlan) (*Report, error) {
	out := &Report{Algorithm: cfg.alg, Counters: p.counters, Plan: p.planStats, Delta: p.deltaStats}
	if p.empty {
		// The skipped execution is still validated through the same core
		// precondition check the executed path runs, so a query core.Run
		// would reject fails identically whether or not the planner
		// short-circuits.
		if err := core.Validate(cfg.alg, cq, core.Options{Bounds: bounds}); err != nil {
			return nil, err
		}
		return out, nil
	}
	var view *core.DataView
	var viewCounter string
	if p.useView {
		v, built, err := e.dataView(s, p.gridN, bounds, p.segIO)
		if err != nil {
			return nil, err
		}
		view, viewCounter = v, CounterViewHit
		if built {
			viewCounter = CounterViewMiss
		}
	}
	rep, err := core.RunContext(ctx, cfg.alg, p.src, cq, core.Options{
		Cluster:      e.cluster,
		Bounds:       bounds,
		GridN:        p.gridN,
		NumReducers:  p.reducers,
		DataView:     view,
		Wire:         p.wire,
		MaxAttempts:  e.cfg.MaxAttempts,
		RetryBackoff: e.cfg.RetryBackoff,
	})
	if err != nil {
		return nil, err
	}
	if rep.Counters == nil {
		rep.Counters = make(map[string]int64, 4)
	}
	for name, v := range p.counters {
		rep.Counters[name] += v
	}
	if viewCounter != "" {
		rep.Counters[viewCounter] = 1
	}
	if p.segIO != nil {
		// Accumulate (not overwrite): on distributed engines the workers'
		// own segment reads already rode the task counter deltas into
		// rep.Counters, and the master-side stats cover only what this
		// process read (split enumeration, delta scans).
		rep.Counters[CounterSegBytesRead] += p.segIO.BytesRead.Load()
		rep.Counters[CounterSegBytesDecoded] += p.segIO.BytesDecoded.Load()
		rep.Counters[CounterSegBytesSelected] = selBytes(p.colsData) + selBytes(p.colsFeat)
	}
	out.Results = toResults(rep.Results)
	out.Counters = rep.Counters
	out.MapMillis = float64(rep.Stats.MapDuration.Microseconds()) / 1000
	out.ReduceMillis = float64(rep.Stats.ReduceDuration.Microseconds()) / 1000
	out.TotalMillis = float64(rep.Stats.Duration.Microseconds()) / 1000
	return out, nil
}

// deltaCounters merges the spq.delta.* counters into base (the planner's
// counter map, or nil). They are emitted only when a delta was actually
// visible to the query, so delta-free executions keep their counter sets
// unchanged.
func deltaCounters(base map[string]int64, ds *DeltaStats) map[string]int64 {
	if ds.Records == 0 {
		return base
	}
	if base == nil {
		base = make(map[string]int64, 3)
	}
	base[CounterDeltaRecords] = ds.Records
	base[CounterDeltaRecordsSelected] = ds.RecordsSelected
	base[CounterDeltaCellsPruned] = int64(ds.CellsPruned)
	return base
}

// finishQuery stores an executed report in the query cache (when this
// query participates in caching) and marks it as a miss. The cache keeps
// its own copy, so the returned report is the caller's to mutate.
func (e *Engine) finishQuery(key string, rep *Report) *Report {
	if key == "" {
		return rep
	}
	e.cache.put(key, rep)
	if rep.Counters == nil {
		rep.Counters = make(map[string]int64, 1)
	}
	rep.Counters[CounterCacheMiss] = 1
	return rep
}

// CacheStats returns the cumulative hit/miss counts and current size of
// the query cache. All zeros when caching is disabled.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// newPlanStats converts a planner decision into the public report form.
func newPlanStats(d *plan.Decision) *PlanStats {
	return &PlanStats{
		SealGridN:          d.Stats.SealGridN,
		DataCells:          d.Stats.DataCells,
		FeatureCells:       d.Stats.FeatureCells,
		DataCellsPruned:    d.Stats.DataCellsPruned,
		FeatureCellsPruned: d.Stats.FeatureCellsPruned,
		Blocks:             d.Stats.Blocks,
		BlocksPruned:       d.Stats.BlocksPruned,
		RecordsTotal:       d.Stats.RecordsTotal,
		RecordsSelected:    d.Stats.RecordsSelected,
		GridN:              d.GridN,
		NumReducers:        d.NumReducers,
	}
}

// selectCells appends the read selection over cells to dst: every block
// when blocks is nil (the unplanned path), otherwise each cell's surviving
// block indices from the planner decision; resident holds the blocks of
// cells kept in memory (nil for SPQ3 cells).
func selectCells(dst []data.ColSel, cells []data.CellStats, blocks map[string][]int, resident map[string][]*data.ColumnBlock) []data.ColSel {
	for _, cs := range cells {
		sel := data.ColSel{Cell: cs, Resident: resident[cs.File]}
		if blocks != nil {
			sel.Blocks = blocks[cs.File]
		}
		dst = append(dst, sel)
	}
	return dst
}

// Data-view counters, on every report that executed in-process: exactly
// one of them is 1. A miss means this query built the view of its base
// generation and query grid (the build failed and was retried, if need
// be); a hit means it found the view cached, or shared a concurrent
// query's build.
const (
	CounterViewHit  = "spq.view.hit"
	CounterViewMiss = "spq.view.miss"
)

// dataView returns the cached data view of the snapshot's base generation
// over the query grid, building it from every sealed data block on first
// use; built reports whether this call built it. Concurrent cold queries
// for the same view — every in-flight client right after a compaction —
// share one build.
func (e *Engine) dataView(s *snapshot, gridN int, bounds geo.Rect, io *data.SegIOStats) (v *core.DataView, built bool, err error) {
	key := core.ViewKey{Gen: s.manifest.Generation, GridN: gridN, Bounds: bounds}
	build := func() (*core.DataView, error) {
		built = true
		g := grid.New(bounds, gridN, gridN)
		in := data.NewColInput(e.fs, selectCells(nil, s.manifest.Data, nil, s.resident), e.segCache, s.manifest.Generation)
		in.IO = io
		return core.BuildDataView(g, in)
	}
	// View builds run outside the MapReduce task retry loop, so they get
	// their own attempt budget against transient injected read errors.
	// Failed builds are never cached, so each attempt re-reads the blocks.
	for attempt := 1; ; attempt++ {
		v, err = e.viewCache.GetOrBuild(key, build)
		if err == nil || attempt >= e.cfg.MaxAttempts {
			return v, built, err
		}
		var re *dfs.ReplicaError
		if !errors.As(err, &re) || !re.IsTransient() {
			return v, built, err
		}
	}
}

// selBytes sums the stored (compressed) frame bytes of a block selection:
// the deterministic spq.seg.bytes.selected counter. Unlike bytes.read it
// does not depend on segment-cache warmth, so two segment formats can be
// compared byte-for-byte even when every read is a cache hit.
func selBytes(sels []data.ColSel) int64 {
	var n int64
	for _, sel := range sels {
		if sel.Blocks == nil {
			for _, bs := range sel.Cell.Blocks {
				n += int64(bs.Length)
			}
			continue
		}
		for _, i := range sel.Blocks {
			n += int64(sel.Cell.Blocks[i].Length)
		}
	}
	return n
}

// SegmentCacheStats returns the cumulative hit/miss counts and current
// size of the decoded-segment cache. All zeros when the engine's storage
// mode does not use one, or when Config.SegmentCache disabled it.
func (e *Engine) SegmentCacheStats() data.BlockCacheStats {
	return e.segCache.Stats()
}
