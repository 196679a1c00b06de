package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// Algorithm selects one of the paper's three MapReduce algorithms.
type Algorithm int

// The algorithms of Sections 4 and 5.
const (
	// PSPQ is the grid-partitioned algorithm without early termination
	// (Algorithms 1–2).
	PSPQ Algorithm = iota
	// ESPQLen accesses feature objects by increasing keyword-list length
	// and stops via the Equation-1 bound (Algorithms 3–4, Lemma 2).
	ESPQLen
	// ESPQSco accesses feature objects by decreasing Jaccard score and
	// stops after k covered data objects (Algorithms 5–6, Lemma 3).
	ESPQSco
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case PSPQ:
		return "pSPQ"
	case ESPQLen:
		return "eSPQlen"
	case ESPQSco:
		return "eSPQsco"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists all three, in the paper's presentation order.
func Algorithms() []Algorithm { return []Algorithm{PSPQ, ESPQLen, ESPQSco} }

// Options configure one MapReduce execution.
type Options struct {
	// Cluster supplies the worker slots and, when it carries an executor,
	// the worker processes remotable jobs ship to.
	Cluster *mapreduce.Cluster
	// Bounds is the spatial extent of the dataset; the query-time grid is
	// laid over it (Section 4.1: "the grid is defined at query time").
	Bounds geo.Rect
	// GridN makes the grid GridN x GridN (the paper's "grid size").
	GridN int
	// NumReducers defaults to the number of grid cells, the paper's
	// configuration, up to MaxReducers. Smaller values make reduce tasks
	// process several cells each, as separate groups sharing the task's
	// one list Lk: later cells start from the τ earlier ones reached.
	// Results are unaffected.
	NumReducers int
	// CellReducer maps every cell of the grid to its reduce task, in
	// [0, NumReducers); nil means cell % NumReducers. A table built by
	// BalanceCells addresses the reducer imbalance the paper observes on
	// clustered data (Section 7.2.4). Results are unaffected. The wire
	// spec does not carry a table, so a job with one may not set Wire.
	CellReducer []int32
	// MaxAttempts, RetryBackoff and FaultInjector are forwarded to the job
	// (see the mapreduce.Job fields of the same names): the per-task retry
	// budget, the base of the capped exponential backoff between attempts,
	// and the failure-test hook. A hook cannot ship, so a job with one may
	// not set Wire.
	MaxAttempts   int
	RetryBackoff  time.Duration
	FaultInjector func(kind mapreduce.TaskKind, taskID, attempt int) error
	// Wire, when set, ships the job: Run attaches a serialized query spec
	// (see querySpec) that worker processes reconstruct the job from, and
	// the job runs on the cluster's remote executor or fails (see
	// mapreduce.Job.Wire). The source leaves the sealed data blocks out,
	// and each worker serves them from its own view, built from the block
	// list Wire.DataBlocks names. Validate rejects a Wire without a block
	// list, and one beside the in-process-only DataView, FaultInjector or
	// CellReducer.
	Wire *WireInfo
	// DataView, when set, supplies data objects out of band: each reduce
	// group is seeded with its cell's data objects from the view — shared
	// dense slices with prebuilt bucket indexes — instead of receiving
	// them through the shuffle. The source then yields the features plus
	// any data objects the view lacks (the engine's uncompacted delta),
	// which join their group beside the view cell. Results are identical
	// to the in-stream path (the comparator already guarantees data before
	// features within a group; preloading is the limit of that order), but
	// the job sorts, copies and merges only the records the view lacks.
	// The view must have been built for exactly this grid (Bounds, GridN).
	// A view lives in this process, so a job with one runs in-process; a
	// shipped job reads its workers' own views instead (Wire). See
	// BuildDataView.
	DataView *DataView
}

func (o Options) gridN() int {
	if o.GridN <= 0 {
		return 1
	}
	return o.GridN
}

func (o Options) numReducers() int {
	if o.NumReducers > 0 {
		return o.NumReducers
	}
	n := o.gridN()
	return min(n*n, MaxReducers)
}

// Aliases shared by the reduce implementations.
type (
	taskCtx    = mapreduce.TaskContext
	valueIter  = mapreduce.Values[CellKey, Rec]
	reduceFunc = func(*taskCtx, *valueIter, func([]ResultItem)) error
)

// Report is the outcome of one SPQ job: the global top-k after merging the
// reduce tasks' lists, plus the job's counters and timing.
type Report struct {
	Algorithm Algorithm
	Results   []ResultItem
	Counters  map[string]int64
	Stats     mapreduce.Stats
}

// MaxGridN and MaxReducers bound the grid size and reduce-task count of a
// job; both can arrive off the wire, and a job's work and memory grow with
// them (GridN² cells, per-map-task partition slices of length
// NumReducers). MaxGridN is 8x the planner's ceiling of 128; MaxReducers
// is far above the planner's 4 per reduce slot.
const (
	MaxGridN    = 1024
	MaxReducers = 4096
)

// Validate checks the preconditions Run enforces before launching a job:
// query shape, algorithm/mode support, usable bounds, grid and reducer
// counts within their limits, a well-formed CellReducer table, and a Wire
// that names a block list and comes without in-process-only options. It is
// exposed so that callers skipping the job entirely (a planner-proven
// empty result) reject exactly the executions Run would reject.
func Validate(alg Algorithm, q Query, opts Options) error {
	if err := q.Validate(); err != nil {
		return err
	}
	switch alg {
	case PSPQ, ESPQLen, ESPQSco:
	default:
		return fmt.Errorf("core: unknown algorithm %d", int(alg))
	}
	if !alg.SupportsMode(q.Mode) {
		return fmt.Errorf("core: %v does not support %v scoring (early termination is unsound for it); use PSPQ", alg, q.Mode)
	}
	b := opts.Bounds
	for _, c := range [...]float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("core: bounds %v, must be finite", b)
		}
	}
	if b.Empty() || b.Area() == 0 {
		return fmt.Errorf("core: empty bounds %v", b)
	}
	if opts.GridN > MaxGridN {
		return fmt.Errorf("core: grid size %d, must be at most %d", opts.GridN, MaxGridN)
	}
	if opts.NumReducers > MaxReducers {
		return fmt.Errorf("core: reducers %d, must be at most %d", opts.NumReducers, MaxReducers)
	}
	if t := opts.CellReducer; t != nil {
		n, r := opts.gridN(), opts.numReducers()
		if len(t) != n*n {
			return fmt.Errorf("core: cell→reducer table has %d entries, the %dx%d grid %d cells", len(t), n, n, n*n)
		}
		for cell, rdx := range t {
			if rdx < 0 || int(rdx) >= r {
				return fmt.Errorf("core: cell %d assigned to reducer %d, must be in [0, %d)", cell, rdx, r)
			}
		}
	}
	if w := opts.Wire; w != nil {
		if !data.IsBlockListFile(w.DataBlocks) {
			return fmt.Errorf("core: %q names no block list", w.DataBlocks)
		}
		if opts.DataView != nil || opts.FaultInjector != nil || opts.CellReducer != nil {
			return fmt.Errorf("core: a shipped job takes no data view, fault injector or cell→reducer table")
		}
	}
	return nil
}

// Run executes the selected algorithm over the source and returns the
// merged top-k. It is RunContext with a background context.
func Run(alg Algorithm, src mapreduce.Source[data.Object], q Query, opts Options) (*Report, error) {
	return RunContext(context.Background(), alg, src, q, opts)
}

// RunContext executes the selected algorithm over the source and returns
// the merged top-k. The source yields both datasets (data and feature
// objects are distinguished by Object.Kind, exactly as the Map functions
// of the paper receive "x: input object" without assumptions on its
// location or provenance). Canceling ctx aborts the underlying MapReduce
// job promptly (see mapreduce.RunContext).
func RunContext(ctx context.Context, alg Algorithm, src mapreduce.Source[data.Object], q Query, opts Options) (*Report, error) {
	if err := Validate(alg, q, opts); err != nil {
		return nil, err
	}
	if opts.Cluster == nil {
		opts.Cluster = mapreduce.NewCluster(nil, 1, 1)
	}
	g := grid.New(opts.Bounds, opts.gridN(), opts.gridN())
	if opts.DataView != nil && !opts.DataView.matches(g) {
		return nil, fmt.Errorf("core: data view built for a different grid than %v", g)
	}

	job, err := buildJob(alg, g, q, opts)
	if err != nil {
		return nil, err
	}
	job.Source = src
	if opts.Wire != nil {
		spec, err := encodeQuerySpec(alg, q, opts)
		if err != nil {
			return nil, err
		}
		job.Wire = &mapreduce.WireJob{Kind: WireKind, Spec: spec}
	}

	res, err := mapreduce.RunContext(ctx, opts.Cluster, job)
	if err != nil {
		return nil, err
	}
	return &Report{
		Algorithm: alg,
		Results:   MergeTopK(q.K, res.Output...),
		Counters:  res.Counters,
		Stats:     res.Stats,
	}, nil
}

// buildJob constructs the typed MapReduce job of one algorithm: the
// codecs, comparators, Map and Reduce functions, the partition (the
// CellReducer table, or cell % R), and the retry knobs. It is shared
// verbatim between the orchestrating process (Run) and a worker
// reconstructing the job from its wire spec (see remote.go), so task
// semantics cannot drift between the two. The Source is set by the
// caller; workers run tasks from split references and never enumerate
// splits themselves.
func buildJob(alg Algorithm, g *grid.Grid, q Query, opts Options) (*mapreduce.Job[data.Object, CellKey, Rec, []ResultItem], error) {
	m := mapper{alg: alg, g: g, q: q}
	partition := CellKeyPartition
	if t := opts.CellReducer; t != nil {
		partition = func(k CellKey, _ int) int { return int(t[k.Cell]) }
	}
	job := &mapreduce.Job[data.Object, CellKey, Rec, []ResultItem]{
		Name:          fmt.Sprintf("%s-k%d-r%g", alg, q.K, q.Radius),
		Map:           m.mapObject,
		MapBatch:      m.mapBlock,
		Cleanup:       emitTaskTopK,
		NumReducers:   opts.numReducers(),
		Partition:     partition,
		GroupEqual:    CellKeyGroup,
		KeyCodec:      CellKeyCodec(),
		ValueCodec:    RecCodec(),
		MaxAttempts:   opts.MaxAttempts,
		RetryBackoff:  opts.RetryBackoff,
		FaultInjector: opts.FaultInjector,
	}
	switch alg {
	case PSPQ:
		job.Less = CellKeyAscLess
		job.Compare = CellKeyAscCompare
		if q.Mode == ScoreNearest {
			job.Reduce = reduceNearest(q, opts.DataView)
		} else {
			job.Reduce = reduceScan(q, scanOpts{}, opts.DataView)
		}
	case ESPQLen:
		job.Less = CellKeyAscLess
		job.Compare = CellKeyAscCompare
		// Algorithm 4 = Algorithm 2 + the Equation-1 bound check.
		job.Reduce = reduceScan(q, scanOpts{lenBound: true}, opts.DataView)
	case ESPQSco:
		job.Less = CellKeyDescLess
		job.Compare = CellKeyDescCompare
		if q.Mode == ScoreRange {
			job.Reduce = reduceESPQSco(q, opts.DataView)
		} else {
			// Influence: a feature's contribution is at most its textual
			// score, so under descending-score order the group can stop as
			// soon as w(x,q) <= τ — but the first covering feature is no
			// longer final, so Algorithm 6 gives way to the Algorithm-2
			// scan with a descending-order break.
			job.Reduce = reduceScan(q, scanOpts{descBreak: true}, opts.DataView)
		}
	default:
		return nil, fmt.Errorf("core: unknown algorithm %d", int(alg))
	}
	return job, nil
}

// Counter names specific to the SPQ jobs.
const (
	// CounterFeaturesPruned counts feature objects dropped by the Map-side
	// keyword intersection test.
	CounterFeaturesPruned = "spq.map.features.pruned"
	// CounterDuplicates counts Lemma-1 duplicate emissions of features.
	CounterDuplicates = "spq.map.features.duplicated"
	// CounterFeaturesExamined counts feature objects actually scored
	// against data objects in the Reduce phase — the quantity early
	// termination minimizes.
	CounterFeaturesExamined = "spq.reduce.features.examined"
	// CounterScoreComputations counts (data, feature) distance/score
	// evaluations in the Reduce phase.
	CounterScoreComputations = "spq.reduce.score.computations"
	// CounterEarlyTerminations counts reduce groups that stopped before
	// exhausting their feature list.
	CounterEarlyTerminations = "spq.reduce.early_terminations"
)

// taskTopK returns the reduce task's list Lk, created at the attempt's
// first group: every group of the task reads and raises one τ. Groups
// hold disjoint data objects (each lives in one cell) and every score is
// a max-aggregate, so a feature below the task's τ cannot lift any object
// of a later group into the task's top-k either.
func taskTopK(ctx *taskCtx, k int) *TopK {
	t, ok := ctx.State.(*TopK)
	if !ok {
		t = NewTopK(k)
		ctx.State = t
	}
	return t
}

// emitTaskTopK is the reduce task's Cleanup: it emits the task's Lk, in
// canonical result order, as the task's one output record. A task without
// groups has no list.
func emitTaskTopK(ctx *taskCtx, emit func([]ResultItem)) error {
	if t, ok := ctx.State.(*TopK); ok {
		emit(t.Items())
	}
	return nil
}

// mapper is the Map phase of all three algorithms (Algorithms 1, 3 and 5).
// They differ only in the Order half of the composite key; each routes a
// data object to its cell, drops a feature sharing no keyword with the
// query (Algorithm 1 line 9) and emits the rest to their cell and their
// Lemma-1 duplication targets. One mapper is shared by all concurrently
// running map tasks of a job.
type mapper struct {
	alg Algorithm
	g   *grid.Grid
	q   Query
}

// order returns the secondary-sort Order of a record (see CellKey):
//
//	pSPQ   : data objects 0, feature objects 1
//	eSPQlen: data objects 0, feature objects |f.W|, so the reduce phase sees
//	         short keyword lists (high Equation-1 bounds) first
//	eSPQsco: feature objects w(f,q), computed here in the Map phase, and
//	         data objects 2 — strictly above any Jaccard value, so under
//	         the descending comparator they still arrive first
func (m *mapper) order(r Rec) float64 {
	switch {
	case r.Kind == data.DataObject && m.alg == ESPQSco:
		return 2
	case r.Kind == data.DataObject:
		return 0
	case m.alg == ESPQLen:
		return float64(r.Len)
	case m.alg == ESPQSco:
		return m.q.score(r)
	}
	return 1
}

// dupScratch pools the duplication-target slices of emitRec, giving each
// in-flight call its own reusable backing array without a per-record
// allocation.
var dupScratch = sync.Pool{New: func() any { return new([]grid.CellID) }}

// emitRec emits one record under its cell key: a data object once, a
// relevant feature to its primary cell plus its duplication targets. It
// returns the number of duplicates emitted, or -1 for a pruned feature.
func (m *mapper) emitRec(r Rec, emit func(CellKey, Rec)) (dups int) {
	if r.Kind == data.FeatureObject && r.Hits == 0 {
		return -1
	}
	order := m.order(r)
	emit(CellKey{Cell: m.g.CellOf(r.Loc), Order: order}, r)
	if r.Kind == data.DataObject {
		return 0
	}
	sp := dupScratch.Get().(*[]grid.CellID)
	targets := m.g.DuplicationTargets(r.Loc, m.q.Radius, (*sp)[:0])
	for _, c := range targets {
		emit(CellKey{Cell: c, Order: order}, r)
	}
	*sp = targets
	dupScratch.Put(sp)
	return len(targets)
}

// mapObject is the per-record Map function: the path of record sources
// (mapreduce.MemorySource) that callers of Run hand in directly. The two
// counts come from the record's keyword set. The engine's splits are all
// column blocks and take mapBlock.
func (m *mapper) mapObject(ctx *mapreduce.TaskContext, o data.Object, emit func(CellKey, Rec)) error {
	if !o.Loc.Finite() {
		// Unlike the engine's blocks, a caller's records were never
		// validated; a NaN or infinite coordinate has no cell and no
		// distance.
		return mapreduce.Permanent(fmt.Errorf("core: object %d at non-finite location %v", o.ID, o.Loc))
	}
	switch dups := m.emitRec(m.q.newRec(o), emit); {
	case dups < 0:
		ctx.Counter(CounterFeaturesPruned, 1)
	case dups > 0:
		ctx.Counter(CounterDuplicates, int64(dups))
	}
	return nil
}

// blockHits is the pooled per-block scratch of mapBlock: one hit counter
// and one mark bit per record (see data.ColumnBlock.CountHits). mapBlock
// zeroes every entry it reads, so a pooled scratch is all zero.
type blockHits struct {
	hits  []uint32
	marks []uint64
}

var hitScratch = sync.Pool{New: func() any { return new(blockHits) }}

// mapBlock is the Map function over a decoded column block: the path of
// columnar splits. The query keywords are resolved against the block's
// dictionary once and only their posting lists are decoded, which yields
// |f.W ∩ q.W| of every record at once; |f.W| is a stored column. It emits
// exactly what mapObject emits for the block's records, in record order.
// A matched posting list that fails validation fails the task permanently.
func (m *mapper) mapBlock(ctx *mapreduce.TaskContext, batch any, emit func(CellKey, Rec)) (int, error) {
	b, ok := batch.(*data.ColumnBlock)
	if !ok {
		return 0, mapreduce.Permanent(fmt.Errorf("core: map batch is a %T, want a column block", batch))
	}
	n, words := b.Len(), (b.Len()+63)/64
	sc := hitScratch.Get().(*blockHits)
	if cap(sc.hits) < n {
		sc.hits, sc.marks = make([]uint32, n), make([]uint64, words)
	}
	hits, marks := sc.hits[:n], sc.marks[:words]
	feature := b.Kind == data.FeatureObject
	if feature {
		if err := b.CountHits(m.q.Keywords, hits, marks); err != nil {
			// The scratch is left dirty, so it is not pooled. A corrupt
			// list reads the same on every attempt.
			return 0, mapreduce.Permanent(err)
		}
	}
	var emitted, dups int
	emitAt := func(i int) {
		r := Rec{Kind: b.Kind, ID: b.IDs[i], Loc: geo.Point{X: b.Xs[i], Y: b.Ys[i]}, Hits: hits[i]}
		hits[i] = 0
		if feature {
			r.Len = b.KwLen(i)
		}
		if d := m.emitRec(r, emit); d >= 0 {
			emitted++
			dups += d
		}
	}
	if feature {
		// Only a record on a matched posting list survives the prune: visit
		// the marked records and never touch the rest.
		for wi, w := range marks {
			marks[wi] = 0
			for ; w != 0; w &= w - 1 {
				emitAt(wi<<6 | bits.TrailingZeros64(w))
			}
		}
	} else {
		for i := range b.IDs {
			emitAt(i)
		}
	}
	hitScratch.Put(sc)
	if pruned := n - emitted; pruned > 0 {
		ctx.Counter(CounterFeaturesPruned, int64(pruned))
	}
	if dups > 0 {
		ctx.Counter(CounterDuplicates, int64(dups))
	}
	return n, nil
}

// scanOpts select the termination behaviour of reduceScan.
type scanOpts struct {
	// lenBound enables the Equation-1 early-termination check of
	// Algorithm 4 (valid under eSPQlen's increasing-length order).
	lenBound bool
	// descBreak stops the group once w(x,q) <= τ (valid under eSPQsco's
	// descending-score order, where no later feature can contribute more).
	descBreak bool
}

// reduceScan is Algorithm 2 (and, with opts.lenBound, Algorithm 4): load
// the cell's data objects into memory, then stream feature objects,
// improving data-object scores and maintaining the task's top-k list Lk
// with threshold τ. It generalizes the paper's max-within-range scoring to
// any monotone contribution (range and influence modes). Under eSPQlen
// ordering, the Equation-1 bound of the current feature bounds every later
// feature, so τ ≥ w̄(f,q) stops the group (Lemma 2).
func reduceScan(q Query, opts scanOpts, view *DataView) reduceFunc {
	r2 := q.Radius * q.Radius
	return func(ctx *taskCtx, values *valueIter, _ func([]ResultItem)) error {
		sc := getScratch(view, values.GroupKey().Cell)
		defer putScratch(sc)
		var (
			topk = taskTopK(ctx, q.K)
			// Counter deltas are accumulated per group and flushed once:
			// ctx.Counter hashes the counter name, too costly per feature.
			examined, computed int64
		)
		for {
			x, ok := values.Next()
			if !ok {
				break
			}
			if x.Kind == data.DataObject {
				if err := sc.add(x); err != nil {
					return err
				}
				continue
			}
			sc.features = true
			if opts.lenBound {
				// Strict: at τ = w̄ a later feature can still reach w = τ
				// exactly and win a canonical tie, so only τ > w̄ stops.
				if topk.Threshold() > q.UpperBound(int(x.Len)) {
					ctx.Counter(CounterEarlyTerminations, 1)
					break
				}
			}
			w := q.score(x)
			examined++
			if w < topk.Threshold() && topk.Len() >= q.K {
				// Algorithm 2 line 9: w(x,q) >= τ required to affect Lk
				// (any contribution is at most w, and below τ it can
				// neither displace nor canonically tie).
				if opts.descBreak {
					// Descending-score order: every later feature scores
					// no higher, so the whole group is done.
					ctx.Counter(CounterEarlyTerminations, 1)
					break
				}
				continue
			}
			if w == 0 {
				continue
			}
			if !sc.sealed {
				sc.scores = growZeroed(sc.scores, sc.seal())
			}
			for _, g := range sc.parts {
				computed += g.kernelHits(x.Loc, q.Radius, r2, &sc.hits, &sc.hitD2)
				for n, i := range sc.hits {
					if c := q.contribution(w, sc.hitD2[n]); c > sc.scores[g.base+i] {
						sc.scores[g.base+i] = c
						topk.Update(g.item(i, c))
					}
				}
			}
		}
		ctx.Counter(CounterFeaturesExamined, examined)
		ctx.Counter(CounterScoreComputations, computed)
		return nil
	}
}

// reduceESPQSco is Algorithm 6: data objects are loaded first; features
// then arrive in decreasing score order, so the first feature within
// distance r of a data object fixes that object's final score. With k
// data objects in the task's list, the group terminates as soon as the
// feature score drops below τ (Lemma 3; the strict comparison keeps
// scanning through features tied with τ so that ties resolve canonically
// by id, not by arrival order).
func reduceESPQSco(q Query, view *DataView) reduceFunc {
	r2 := q.Radius * q.Radius
	return func(ctx *taskCtx, values *valueIter, _ func([]ResultItem)) error {
		sc := getScratch(view, values.GroupKey().Cell)
		defer putScratch(sc)
		var (
			topk = taskTopK(ctx, q.K)
			// Flushed once per group; see reduceScan.
			examined, computed int64
		)
		for {
			x, ok := values.Next()
			if !ok {
				break
			}
			if x.Kind == data.DataObject {
				if err := sc.add(x); err != nil {
					return err
				}
				continue
			}
			sc.features = true
			w := q.score(x)
			if w == 0 {
				// Only zero-score features can follow; the group is done.
				ctx.Counter(CounterEarlyTerminations, 1)
				break
			}
			if topk.Len() >= q.K && w < topk.Threshold() {
				// Every later feature scores no higher than w < τ.
				ctx.Counter(CounterEarlyTerminations, 1)
				break
			}
			examined++
			if !sc.sealed {
				sc.covered = growZeroed(sc.covered, sc.seal())
			}
			for _, g := range sc.parts {
				computed += g.kernelHits(x.Loc, q.Radius, r2, &sc.hits, &sc.hitD2)
				for _, i := range sc.hits {
					if !sc.covered[g.base+i] {
						// Here w(x,q) = τ(p): no later feature scores higher.
						sc.covered[g.base+i] = true
						topk.Update(g.item(i, w))
					}
				}
			}
		}
		ctx.Counter(CounterFeaturesExamined, examined)
		ctx.Counter(CounterScoreComputations, computed)
		return nil
	}
}
