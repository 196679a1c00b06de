// Package spq is a library for parallel and distributed processing of
// spatial preference queries using keywords, reproducing the EDBT 2017
// paper by Doulkeridis, Vlachou, Mpestas and Mamoulis.
//
// Given a set of data objects (locations to be ranked), a set of feature
// objects (locations annotated with keywords), and a query q(k, r, W),
// the library returns the top-k data objects ranked by the best Jaccard
// similarity between W and the keywords of any feature object within
// distance r:
//
//	τ(p) = max{ Jaccard(W, f.Keywords) : dist(p, f) ≤ r }
//
// Processing runs as a single MapReduce job on an in-process simulated
// cluster (a DFS with replicated blocks plus parallel map/reduce worker
// slots). Three algorithms are available: PSPQ (grid partitioning with
// feature duplication), ESPQLen and ESPQSco (early termination; ESPQSco
// is the paper's — and this library's — best performer and the default).
//
// # Quick start
//
//	eng := spq.NewEngine(spq.Config{})
//	eng.AddData(spq.DataObject{ID: 1, X: 4.6, Y: 4.8})
//	eng.AddFeature(spq.Feature{ID: 101, X: 3.8, Y: 5.5, Keywords: []string{"italian"}})
//	res, err := eng.Query(spq.Query{K: 1, Radius: 1.5, Keywords: []string{"italian"}})
package spq

import (
	"fmt"
	"math"
	"slices"

	"spq/internal/core"
	"spq/internal/geo"
)

// Algorithm selects the query processing algorithm.
type Algorithm = core.Algorithm

// The three algorithms of the paper.
const (
	// PSPQ is the grid-partitioned parallel algorithm without early
	// termination (Section 4).
	PSPQ = core.PSPQ
	// ESPQLen terminates early by scanning features in increasing
	// keyword-list length (Section 5.1).
	ESPQLen = core.ESPQLen
	// ESPQSco terminates early by scanning features in decreasing score
	// (Section 5.2). Default and consistently fastest.
	ESPQSco = core.ESPQSco
)

// Algorithms returns all algorithms in the paper's presentation order.
func Algorithms() []Algorithm { return core.Algorithms() }

// ScoringMode selects how in-range features contribute to a data object's
// score.
type ScoringMode = core.ScoringMode

// The scoring modes: the paper's range scoring (default) plus the
// influence and nearest-neighbor extensions from the spatial preference
// query literature. ScoreNearest is only supported by PSPQ — it is not
// monotone in the textual score, so early termination is unsound for it.
const (
	ScoreRange     = core.ScoreRange
	ScoreInfluence = core.ScoreInfluence
	ScoreNearest   = core.ScoreNearest
)

// DataObject is a spatial object to be ranked by queries.
type DataObject struct {
	ID   uint64
	X, Y float64
}

// Feature is a spatio-textual object that scores nearby data objects.
type Feature struct {
	ID   uint64
	X, Y float64
	// Keywords are the feature's keywords; an empty word is not one and is
	// dropped, as LoadLines drops it.
	Keywords []string
}

// Query is a spatial preference query using keywords. The json tags are
// its canonical wire form, shared by the serving daemon (cmd/spqd) and
// its clients; see QueryRequest.
type Query struct {
	// K is the number of data objects to return.
	K int `json:"k"`
	// Radius is the neighborhood distance threshold r: only feature
	// objects within this distance of a data object influence its score.
	Radius float64 `json:"radius"`
	// Keywords is the query keyword set W. Empty words are ignored, and at
	// least one non-empty word is required.
	Keywords []string `json:"keywords"`
	// Mode selects the scoring variant; the zero value is the paper's
	// range mode (best Jaccard score within the radius).
	Mode ScoringMode `json:"mode,omitempty"`
}

// Result is one ranked data object. A query returns at most K results;
// data objects with no relevant feature in range score 0 and are omitted.
// The json tags are its canonical wire form (see QueryResponse).
type Result struct {
	ID    uint64  `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Score float64 `json:"score"`
}

// Report is the full outcome of a query: ranked results plus execution
// metrics of the underlying MapReduce job.
type Report struct {
	Algorithm Algorithm
	Results   []Result
	// Counters are the job counters (see package documentation for names):
	// feature duplication, early terminations, records shuffled, etc. For
	// planned queries (WithAutoPlan) they additionally carry the
	// "spq.plan.*" counters: cells pruned and input records skipped.
	Counters map[string]int64
	// Plan describes what the query planner did; nil unless the query ran
	// with WithAutoPlan.
	Plan *PlanStats
	// Delta describes the in-memory delta's participation: the storage
	// generation served, how many appended-but-not-yet-compacted records
	// were visible, and — for planned queries — how many delta cells were
	// pruned. The spq.delta.* entries of Counters carry the same numbers.
	Delta *DeltaStats
	// MapMillis and ReduceMillis are the phase durations.
	MapMillis    float64
	ReduceMillis float64
	// TotalMillis is the end-to-end job duration.
	TotalMillis float64

	// effective records the settings the query actually ran with, resolved
	// from the defaults and the QueryOptions; see Options.
	effective EffectiveOptions
}

// EffectiveOptions are the resolved execution settings of one query: the
// defaults overlaid with every QueryOption the caller passed. The serving
// daemon echoes them back to clients, so a caller can see what a query
// actually ran with without reverse-engineering the option list.
type EffectiveOptions struct {
	// Algorithm is the processing algorithm the query ran.
	Algorithm Algorithm `json:"algorithm"`
	// AutoPlan reports whether the query planner was enabled.
	AutoPlan bool `json:"auto_plan"`
	// Cache reports whether this execution participated in the query cache
	// (an engine with the cache disabled reports false even without
	// WithCache(false)).
	Cache bool `json:"cache"`
	// Delta reports whether appended-but-uncompacted records were visible.
	Delta bool `json:"delta"`
	// GridN is the query-time grid edge requested by WithGrid; 0 when the
	// default grid of 16 applied, planned or not.
	GridN int `json:"grid_n,omitempty"`
	// Reducers is the reduce-task override from WithReducers; 0 = default.
	Reducers int `json:"reducers,omitempty"`
}

// Options returns the effective execution settings the query ran with.
// Reports served from the query cache return the settings of the original
// execution, which — by cache-key construction — resolve identically.
func (r *Report) Options() EffectiveOptions { return r.effective }

// PlanStats describes one planned query execution: how much of the sealed,
// partitioned storage the planner proved irrelevant, and the execution
// parameters the job ran with.
type PlanStats struct {
	// SealGridN is the seal grid edge the storage was partitioned over.
	SealGridN int
	// DataCells and FeatureCells count the non-empty sealed cells of each
	// dataset; the *Pruned counts say how many the planner skipped
	// (feature cells by keyword disjointness, data cells with no
	// surviving feature cell within the query radius, and feature cells
	// left without a reachable data cell).
	DataCells          int
	FeatureCells       int
	DataCellsPruned    int
	FeatureCellsPruned int
	// Blocks counts the column-block zone maps the planner considered,
	// sealed and delta, and BlocksPruned how many it proved irrelevant —
	// pruning inside surviving cells as well as across whole pruned cells.
	// The "spq.plan.blocks.scanned" and "spq.plan.blocks.pruned" counters
	// carry the same numbers.
	Blocks       int
	BlocksPruned int
	// RecordsTotal and RecordsSelected count stored input records before
	// and after pruning: the job reads only RecordsSelected of them.
	RecordsTotal    int64
	RecordsSelected int64
	// GridN and NumReducers are the execution parameters the job ran
	// with, as an unplanned query would; NumReducers is 0 when the plan
	// proved the query empty and no job ran, unless WithReducers set it.
	GridN       int
	NumReducers int
}

// QueryOption customizes one query execution.
type QueryOption func(*queryConfig)

type queryConfig struct {
	alg      core.Algorithm
	gridN    int
	gridSet  bool
	reducers int
	bounds   *geo.Rect
	autoPlan bool
	noCache  bool
	noDelta  bool
}

// WithAlgorithm selects the processing algorithm (default ESPQSco).
func WithAlgorithm(a Algorithm) QueryOption {
	return func(c *queryConfig) { c.alg = a }
}

// WithGrid sets the query-time grid to n x n cells (default 16x16, planned
// or not). More cells mean more parallelism and cheaper reduce tasks at
// the cost of more feature duplication (Section 6.3 of the paper). n must be in [1, 1024]; a query outside it fails with
// ErrInvalidQuery.
func WithGrid(n int) QueryOption {
	return func(c *queryConfig) { c.gridN = n; c.gridSet = true }
}

// WithAutoPlan enables the query planner: the sealed storage manifest is
// pruned against the query before the MapReduce job starts — feature
// cells whose keyword summary is disjoint from the query keywords are
// skipped, data cells with no surviving feature cell within the radius are
// skipped (their objects provably score 0). It only prunes: the grid and
// the task counts stay the unplanned query's. Results are identical to the
// unplanned path; selective queries read a fraction of the input.
// Report.Plan records the outcome.
func WithAutoPlan() QueryOption {
	return func(c *queryConfig) { c.autoPlan = true }
}

// WithCache controls this execution's participation in the engine's query
// cache. WithCache(false) bypasses it entirely: the query neither reads a
// cached report nor stores its own — use it when the actual execution
// matters (benchmarking, or reading fresh job counters for a query that
// may already be cached). WithCache(true) restores the default, so a later
// option can override an earlier one.
func WithCache(enabled bool) QueryOption {
	return func(c *queryConfig) { c.noCache = !enabled }
}

// WithDelta controls the visibility of appended-but-uncompacted records.
// WithDelta(false) restricts this query to the sealed base generation,
// ignoring records appended since the last seal or compaction — useful for
// repeatable reads while a writer is streaming appends, or to isolate the
// delta's contribution to results and timings. Such executions are cached
// separately from delta-inclusive ones. WithDelta(true) restores the
// default.
func WithDelta(enabled bool) QueryOption {
	return func(c *queryConfig) { c.noDelta = !enabled }
}

// WithReducers overrides the number of reduce tasks. The default is one
// per grid cell — the paper's configuration — capped at four per reduce
// slot: every cell stays its own reduce group, and tasks beyond that cap
// only add scheduling overhead. r above 4096 fails the query with
// ErrInvalidQuery; r <= 0 keeps the default.
func WithReducers(r int) QueryOption {
	return func(c *queryConfig) { c.reducers = r }
}

// WithBounds overrides the data-space bounding rectangle used to lay out
// the grid. By default the engine uses the bounding box of the loaded
// objects. A NaN or infinite coordinate fails the query with
// ErrInvalidQuery.
func WithBounds(minX, minY, maxX, maxY float64) QueryOption {
	return func(c *queryConfig) {
		c.bounds = &geo.Rect{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
	}
}

func toResults(items []core.ResultItem) []Result {
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.ID, X: it.Loc.X, Y: it.Loc.Y, Score: it.Score}
	}
	return out
}

// keywordsOf drops the empty words of a feature's or query's keyword
// list: an empty word is not a keyword — the rule ParseLine applies to the
// text format — so a feature scores the same whether AddFeature or
// LoadLines loaded it.
func keywordsOf(words []string) []string {
	if slices.Contains(words, "") {
		words = slices.DeleteFunc(slices.Clone(words), func(w string) bool { return w == "" })
	}
	return words
}

// validateQuery rejects malformed queries at the API boundary, before any
// snapshot, cache or job work. Every rejection wraps ErrInvalidQuery and
// names the offending field, so serving layers map it to a 400 and clients
// see what to fix.
func validateQuery(q Query) error {
	if q.K <= 0 {
		return fmt.Errorf("%w: field K = %d, must be positive", ErrInvalidQuery, q.K)
	}
	if math.IsNaN(q.Radius) || math.IsInf(q.Radius, 0) {
		// `q.Radius < 0` is false for NaN, so without this check a NaN
		// radius used to slip through and silently return wrong results
		// (every distance comparison against NaN is false); +Inf put every
		// feature in range of every object. Reject both with a clear error.
		return fmt.Errorf("%w: field Radius = %g, must be finite", ErrInvalidQuery, q.Radius)
	}
	if q.Radius < 0 {
		return fmt.Errorf("%w: field Radius = %g, must be non-negative", ErrInvalidQuery, q.Radius)
	}
	if len(keywordsOf(q.Keywords)) == 0 {
		return fmt.Errorf("%w: field Keywords has no non-empty word", ErrInvalidQuery)
	}
	switch q.Mode {
	case ScoreRange, ScoreInfluence, ScoreNearest:
	default:
		return fmt.Errorf("%w: field Mode = %d, not a scoring mode", ErrInvalidQuery, int(q.Mode))
	}
	return nil
}

// effectiveOptions resolves one parsed option set into the introspection
// form attached to reports (Report.Options). cacheEnabled is whether the
// engine's query cache exists at all.
func (c *queryConfig) effectiveOptions(cacheEnabled bool) EffectiveOptions {
	return EffectiveOptions{
		Algorithm: c.alg,
		AutoPlan:  c.autoPlan,
		Cache:     cacheEnabled && !c.noCache,
		Delta:     !c.noDelta,
		GridN:     c.gridN,
		Reducers:  c.reducers,
	}
}
