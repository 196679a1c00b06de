package spq

import (
	"cmp"
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

// Storage names where the engine keeps its sealed datasets. There is one
// storage, StorageDFSBinary; any other value is a configuration error.
type Storage int

// StorageDFSBinary stores objects in the simulated distributed file system
// as SPQ3 compressed columnar segments: each sealed cell is written as
// density-sized column blocks (delta-varint ids, xor-delta bit-packed
// coordinates, dictionary-coded keyword postings) with per-block zone maps
// (bounding box, record count, keyword bloom) in the in-memory manifest, so
// the query planner prunes inside cells and the reader decodes only
// surviving blocks — straight into dense, cache-shared column buffers. This
// is the full reproduction of the paper's Hadoop/HDFS stack (replicated
// blocks, repair, worker processes), and the zero value.
const StorageDFSBinary Storage = 0

// Per-query segment I/O counters, emitted by every executed query
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
	// CounterSegBytesDecoded is the in-memory size of the blocks opened
	// from those reads, as the segment cache charges them: the decoded id
	// and coordinate columns plus the frame a feature block's keyword
	// header and posting lists stay in (master + workers on a distributed
	// engine, with the same per-worker breakdown).
	CounterSegBytesDecoded = data.CounterSegBytesDecoded
	// CounterSegBytesSelected is the stored (compressed) size of every
	// block the query selected, independent of segment-cache warmth —
	// the deterministic quantity for comparing segment formats.
	CounterSegBytesSelected = "spq.seg.bytes.selected"
)

// DefaultSealGridN is the default seal grid edge: Seal partitions the
// datasets into up to DefaultSealGridN² per-cell files unless
// Config.SealGridN overrides it.
const DefaultSealGridN = 32

// Config parameterizes an Engine.
type Config struct {
	// Nodes is the number of DFS DataNodes (default 16, the paper's
	// cluster size).
	Nodes int
	// MapSlots and ReduceSlots bound the concurrency of jobs that run
	// in-process and size them: 4·MapSlots map tasks and at most
	// 4·ReduceSlots reduce tasks (default 8 each). A job shipped to
	// Workers is sized by the workers' slots instead: one map and one
	// reduce task per slot.
	MapSlots    int
	ReduceSlots int
	// BlockSize is the DFS block size in bytes (default 256 KiB).
	BlockSize int
	// Replication is the DFS replication factor (default 3).
	Replication int
	// Storage must be StorageDFSBinary, the zero value: SPQ3 segments in
	// the DFS. With any other value every query fails with a configuration
	// error, and no worker is attached.
	Storage Storage
	// SealGridN is the edge size of the seal grid: Seal writes the
	// datasets as per-cell files over a SealGridN x SealGridN grid and
	// keeps a manifest of per-cell statistics in memory, which is what the
	// query planner prunes every query against. Default DefaultSealGridN.
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
	// re-executed on surviving ones. Each worker builds and keeps its own
	// data views and decoded blocks across jobs, so a shipped job shuffles
	// only features. A query whose plan selects a block of the uncompacted
	// delta, which lives in the master's memory, runs in-process on the
	// engine's own view instead (spq.exec.fallback.local).
	// Empty (the default) runs everything in-process. Engines with workers
	// should be Closed.
	//
	// The worker set is fixed for the engine's life: these workers are
	// attached once, at construction, and a worker's loss is the only way
	// it changes. A lost or quarantined worker stays lost; its tasks run
	// on the survivors.
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
	// dataBlocks names the DFS block list of the base generation's sealed
	// data blocks, from which workers build their data views; empty unless
	// the engine is distributed.
	dataBlocks string
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
	// segCache is the decoded-segment cache; nil when disabled.
	segCache *data.BlockCache
	// viewCache caches one data view per (base generation, query grid) over
	// every sealed data block (see core.DataView): jobs run in-process
	// shuffle only feature records and the delta's data records, and reduce
	// against the view's dense per-cell columns. Shipped jobs read their
	// workers' own views instead.
	viewCache *core.ViewCache

	// exec is the RPC executor when Config.Workers is set; execErr holds a
	// worker attach failure or an unknown Config.Storage, surfaced by every
	// query rather than lost (NewEngine does not return errors).
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

	mu sync.Mutex
	// objects is the load buffer before the first seal and the objects of
	// the sealed base generation after it: compactions re-seal them with
	// the delta.
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

	// Sealed state: the manifest of the partitioned storage layout, and
	// the block list workers build their data views from.
	manifest   *data.Manifest
	dataBlocks string

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
	if cfg.SegmentCache >= 0 {
		e.segCache = data.NewBlockCache(int64(cfg.SegmentCache))
	}
	switch {
	case cfg.Storage != StorageDFSBinary:
		// Checked before any worker is attached, so none is left connected.
		e.execErr = fmt.Errorf("spq: config: unknown storage %d; StorageDFSBinary is the only storage", cfg.Storage)
	case len(cfg.Workers) == 0:
	default:
		exec, err := mapreduce.NewRPCExecutor(fs, cfg.Workers)
		if err != nil {
			e.execErr = fmt.Errorf("spq: attach workers: %w", err)
		} else {
			e.exec = exec
			e.cluster.Executor = exec
			if cfg.Faults != nil {
				exec.SetKills(cfg.Faults.WorkerKills)
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
// Every object is validated at load time: coordinates must be finite, and
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
	batch := make([]data.Object, len(objs))
	for i, o := range objs {
		batch[i] = data.Object{Kind: data.DataObject, ID: o.ID, Loc: geo.Point{X: o.X, Y: o.Y}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.loadLocked(batch, nil)
	return err
}

// AddFeature loads feature objects (the keyword-annotated objects that
// score data objects). Validation and sealed-engine append semantics
// follow AddData: finite coordinates, unique ids within the feature
// dataset, all-or-nothing per call.
func (e *Engine) AddFeature(feats ...Feature) error {
	batch := make([]data.Object, len(feats))
	for i, f := range feats {
		batch[i] = data.Object{Kind: data.FeatureObject, ID: f.ID, Loc: geo.Point{X: f.X, Y: f.Y}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.loadLocked(batch, func(i int) []string { return keywordsOf(feats[i].Keywords) })
	return err
}

// loadLocked is the one load path: it validates every object of the batch
// — finite coordinates, an id unused by its dataset and earlier in the
// batch — and only then interns each feature's keywords, keywords(i) for
// batch object i, into the engine's dictionary, adds every object and
// commits. A rejected batch therefore leaves the engine unchanged,
// dictionary included; its error comes back with the index of the object
// that failed, and a failed commit with index -1.
func (e *Engine) loadLocked(objs []data.Object, keywords func(i int) []string) (int, error) {
	seen := map[data.Kind]map[uint64]struct{}{
		data.DataObject:    make(map[uint64]struct{}),
		data.FeatureObject: make(map[uint64]struct{}),
	}
	for i, o := range objs {
		if err := e.checkLocked(o, seen[o.Kind]); err != nil {
			return i, err
		}
	}
	for i, o := range objs {
		if o.Kind == data.FeatureObject {
			o.Keywords = e.dict.InternAll(keywords(i))
		}
		e.addLocked(o)
	}
	return -1, e.commitLocked()
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
		gen:        e.gen,
		manifest:   e.manifest,
		bounds:     e.bounds,
		dataBlocks: e.dataBlocks,
	}
	if len(e.delta) > 0 {
		s.delta = &deltaState{objs: e.delta[:len(e.delta)]}
	}
	e.snap.Store(s)
}

// checkLocked validates one incoming object: finite coordinates and an id
// unused by its dataset and, via seen, earlier in the same batch. Errors
// name the offending object so bad records in a bulk load can be found
// and fixed.
func (e *Engine) checkLocked(o data.Object, seen map[uint64]struct{}) error {
	if !finite(o.Loc.X) || !finite(o.Loc.Y) {
		return fmt.Errorf("spq: %s object %d: non-finite coordinate (%g, %g)", o.Kind, o.ID, o.Loc.X, o.Loc.Y)
	}
	ids := e.dataIDs
	if o.Kind == data.FeatureObject {
		ids = e.featIDs
	}
	_, loaded := ids[o.ID]
	if _, batched := seen[o.ID]; loaded || batched {
		return fmt.Errorf("spq: duplicate %s object id %d", o.Kind, o.ID)
	}
	seen[o.ID] = struct{}{}
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

// allObjectsLocked returns every loaded object — base plus delta. The
// returned slice may alias engine state and must not be mutated or
// retained past the lock.
func (e *Engine) allObjectsLocked() []data.Object {
	if len(e.delta) == 0 {
		return e.objects
	}
	out := make([]data.Object, 0, len(e.objects)+len(e.delta))
	return append(append(out, e.objects...), e.delta...)
}

// Manifest returns the partition manifest of the sealed storage layout,
// or nil before Seal. The manifest lives in memory only — the DFS holds
// the cell segments it describes — and is what the query planner prunes
// against; it is exposed for inspection and tooling.
func (e *Engine) Manifest() *data.Manifest {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.manifest
}

// Seal publishes the loaded datasets to storage (write-once files, like
// HDFS). Storage is partition-aware: objects are written as per-cell SPQ3
// segment files over the seal grid (Config.SealGridN), described by an
// in-memory manifest of per-cell statistics — record counts, tight
// bounding rectangles, keyword summaries — that the query planner uses to
// skip irrelevant files. Query seals implicitly; calling Seal explicitly
// lets the caller observe storage errors early. Loading after Seal
// appends into the in-memory delta (see AddData and Compact) — the engine
// stays writable.
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
	g := grid.New(gridBounds(e.bounds), n, n)
	prefix := fmt.Sprintf("spq-objects-%d", e.fileSeq)
	e.fileSeq++
	parts := data.PartitionObjects(g, objs)
	parts.Generation = e.gen + 1
	man, err := parts.SealDFS(e.fs, prefix, e.dict)
	if err != nil {
		return fmt.Errorf("spq: seal: %w", err)
	}
	if e.exec != nil {
		// Workers build their data views from this list, a few bytes per
		// block, rather than from the manifest.
		name := data.BlockListFileName(prefix)
		if err := e.fs.Create(name, data.EncodeBlockList(man.Data)); err != nil {
			return fmt.Errorf("spq: seal: %w", err)
		}
		e.dataBlocks = name
	}
	e.manifest = man
	e.objects = objs // retained: future compactions re-seal base+delta
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
	merged := make([]data.Object, 0, len(e.objects)+len(e.delta))
	merged = append(append(merged, e.objects...), e.delta...)
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

// defaultGridN is the query-time grid of every query without WithGrid, so
// a generation has one data view. Grids sized per query
// from the planner's selection put the query_hot benchmark's 150 queries
// on 12 grids (42 to 53), one view each; on one grid its live heap fell
// from 63 to 41 MB and its qps rose 21% (6 paired seeds, 2 cores).
const defaultGridN = 16

// gridBounds pads a degenerate bounding box (a point or a line of objects)
// by 1 on every side, so a grid over it stays two-dimensional. Nothing of
// the query enters it, so queries at any radius share one data view.
func gridBounds(b geo.Rect) geo.Rect {
	if b.Width() == 0 || b.Height() == 0 {
		return b.Expand(1)
	}
	return b
}

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
	bounds = gridBounds(bounds)
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
	// The input: the planner's per-cell block selections of the sealed
	// base and the delta, the data and feature halves apart.
	colsData, colsFeat []data.ColSel
	// src maps that selection block by block, minus the sealed data
	// blocks: those reach reduce through a data view, never the shuffle.
	src mapreduce.Source[data.Object]
	// segIO meters the segment reads of src and of a view build.
	segIO *data.SegIOStats
	// wire, when set, ships the job to the workers, whose own views of the
	// generation's block list serve the sealed data objects. Nil runs the
	// job in-process on the engine's cached data view of the base
	// generation and query grid (core.DataView).
	wire            *core.WireInfo
	gridN, reducers int
	// empty marks a plan that proves the query returns nothing: no job runs.
	empty      bool
	planStats  *PlanStats
	deltaStats *DeltaStats
	counters   map[string]int64 // spq.plan.* and spq.delta.*
}

// planQuery decides how one query executes against snapshot s. Every
// query is planned: the planner prunes the sealed base and the delta
// against it, and the job reads the surviving blocks. planQuery is the
// only place that looks at the delta option and whether the engine is
// distributed, and the only place that decides whether the job ships: it
// does on a distributed engine when no delta block is selected, since
// resident blocks have no reference a worker could read. That decision
// sizes the job (sizeJob).
func (e *Engine) planQuery(s *snapshot, q Query, cfg *queryConfig) *physicalPlan {
	p := &physicalPlan{
		gridN:      cmp.Or(cfg.gridN, defaultGridN),
		reducers:   cfg.reducers,
		deltaStats: &DeltaStats{Generation: s.gen},
		segIO:      &data.SegIOStats{},
	}
	// The delta participating in this query: records appended after the
	// base generation sealed, unless the caller opted out.
	var deltaData, deltaFeat []data.ColSel
	if delta := s.delta; delta != nil && !cfg.noDelta {
		// The delta cut into blocks over the manifest's seal grid (lazily,
		// once per snapshot), so its cells read and prune like sealed ones.
		deltaData, deltaFeat = delta.selections(s.manifest, e.dict)
		p.deltaStats.Records = int64(len(delta.objs))
		p.deltaStats.Cells = len(deltaData) + len(deltaFeat)
	}
	dec := plan.PlanGenerations(s.manifest, deltaData, deltaFeat, plan.Input{Radius: q.Radius, Keywords: q.Keywords})
	p.deltaStats.CellsPruned = dec.Stats.DeltaCellsPruned
	p.deltaStats.RecordsSelected = dec.Stats.DeltaRecordsSelected
	p.counters = deltaCounters(dec.Counters(), p.deltaStats)
	p.planStats = newPlanStats(dec, p.gridN, p.reducers)
	if p.empty = dec.Empty(); p.empty {
		return p
	}

	// One block source serves the sealed and the delta selections: SPQ3
	// blocks are fetched by ranged read through the decoded-segment cache,
	// the delta's resident ones are served as they are.
	// The sealed data objects never shuffle: they come from a data view of
	// the base generation and query grid, and the job shuffles the delta's
	// data records and the features only. The delta overlays the view
	// rather than disabling it — its data records join their groups
	// in-stream, beside the view cell. A job that ships reads the workers'
	// own views, built from the generation's block list; any other job
	// reads the engine's. The planner's selection runs sealed data cells
	// first, so the in-stream source is its tail.
	p.colsData, p.colsFeat = dec.Data(), dec.Features()
	cols := dec.Cells[dec.SealedData:]
	if e.exec != nil && !slices.ContainsFunc(cols, func(sel data.ColSel) bool { return sel.Resident != nil }) {
		p.wire = &core.WireInfo{Gen: s.manifest.Generation, DataBlocks: s.dataBlocks}
	}
	in := data.NewColInput(e.fs, cols, e.segCache, s.manifest.Generation)
	in.IO = p.segIO
	// Column blocks are small, and one map task per block would drown the
	// job in task overhead, so consecutive blocks are grouped into the
	// job's map task count.
	p.src = mapreduce.Coalesce[data.Object](in, e.sizeJob(p, cfg))
	return p
}

// sizeJob sets p.reducers, unless WithReducers chose it, and returns the
// map task count; the planner never sizes a job. The paper's one reducer
// per cell is a statement about groups, not tasks: cells share reduce
// tasks, and each stays one group.
// An in-process task costs little, so the counts follow the slots. A
// shipped task is a RunTask round trip plus a Store per non-empty
// partition and a Fetch per run, so a shipped job runs one map and one
// reduce task per worker lane (slot), and no more reducers than cells.
func (e *Engine) sizeJob(p *physicalPlan, cfg *queryConfig) int {
	maps, reducers := e.cfg.MapSlots*4, chooseReducers(p.gridN, e.cfg.ReduceSlots)
	if p.wire != nil {
		maps = e.exec.Lanes(mapreduce.MapTask)
		reducers = min(p.gridN*p.gridN, e.exec.Lanes(mapreduce.ReduceTask))
	}
	if cfg.reducers <= 0 {
		p.reducers = reducers
		p.planStats.NumReducers = reducers
	}
	return maps
}

// chooseReducers caps the paper's one-reducer-per-cell default at a small
// multiple of the available reduce slots (Config.ReduceSlots, at least 1
// after withDefaults): beyond that, extra reduce tasks only add
// scheduling overhead (cells are then assigned round-robin).
func chooseReducers(gridN, reduceSlots int) int {
	return min(gridN*gridN, 4*reduceSlots)
}

// execute runs plan p: nothing for a provably empty plan, otherwise one
// MapReduce job over p.src, shipped when the plan says so and run
// in-process on the engine's cached view otherwise.
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
	if p.wire == nil {
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
	// Accumulate (not overwrite): on distributed engines the workers' own
	// segment reads already rode the task counter deltas into
	// rep.Counters, and the master-side stats cover only what this process
	// read (split enumeration, delta scans).
	rep.Counters[CounterSegBytesRead] += p.segIO.BytesRead.Load()
	rep.Counters[CounterSegBytesDecoded] += p.segIO.BytesDecoded.Load()
	rep.Counters[CounterSegBytesSelected] = selBytes(p.colsData) + selBytes(p.colsFeat)
	out.Results = toResults(rep.Results)
	out.Counters = rep.Counters
	out.MapMillis = float64(rep.Stats.MapDuration.Microseconds()) / 1000
	out.ReduceMillis = float64(rep.Stats.ReduceDuration.Microseconds()) / 1000
	out.TotalMillis = float64(rep.Stats.Duration.Microseconds()) / 1000
	return out, nil
}

// deltaCounters merges the spq.delta.* counters into base, the planner's
// counter map. They are emitted only when a delta was actually visible to
// the query, so delta-free executions keep their counter sets unchanged.
func deltaCounters(base map[string]int64, ds *DeltaStats) map[string]int64 {
	if ds.Records == 0 {
		return base
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

// newPlanStats converts a planner decision and the job's grid and reducer
// count into the public report form.
func newPlanStats(d *plan.Decision, gridN, reducers int) *PlanStats {
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
		GridN:              gridN,
		NumReducers:        reducers,
	}
}

// Data-view counters. A query whose job runs in-process reports exactly
// one of them as 1: a miss means it built the view of its base generation
// and query grid (the build failed and was retried, if need be), a hit
// that it found the view cached or shared a concurrent query's build. A
// query shipped to workers that serve the sealed data objects from their
// own views reports spq.view.miss once per worker that built its view for
// this query, and no hit; spq.view.miss.<worker> names the workers.
const (
	CounterViewHit  = core.CounterViewHit
	CounterViewMiss = core.CounterViewMiss
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
		in := data.NewColInput(e.fs, data.SelectAll(s.manifest.Data), e.segCache, s.manifest.Generation)
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

// selBytes sums the stored (compressed) frame bytes of the planner's
// block selections, which always list their blocks: the deterministic
// spq.seg.bytes.selected counter. Unlike bytes.read it does not depend on
// segment-cache warmth, so two segment formats can be compared
// byte-for-byte even when every read is a cache hit.
func selBytes(sels []data.ColSel) int64 {
	var n int64
	for _, sel := range sels {
		for _, i := range sel.Blocks {
			n += int64(sel.Cell.Blocks[i].Length)
		}
	}
	return n
}

// SegmentCacheStats returns the cumulative hit/miss counts and current
// size of the decoded-segment cache. All zeros when Config.SegmentCache
// disabled it.
func (e *Engine) SegmentCacheStats() data.BlockCacheStats {
	return e.segCache.Stats()
}
