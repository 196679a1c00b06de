// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Section 7) on the simulated cluster. Each figure
// panel — Figures 5(a)–(d), 6(a)–(d), 7(a)–(d), 8, 9(a)–(d), plus the
// Section 6.2 duplication-factor model — has a runner that sweeps the same
// parameter the paper sweeps and reports one series per algorithm.
//
// Scale: the paper runs 40–512 million objects on 16 physical machines;
// the harness defaults to tens of thousands of objects in-process. The
// parameter grids (grid sizes, radius as a fraction of the cell edge,
// query keyword counts, k) are the paper's, so the relative behaviour of
// the algorithms — who wins, how gaps grow with load — is preserved even
// though absolute times are not comparable.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"

	"spq"
	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// Config scales and parallelizes the harness.
type Config struct {
	// SizeReal is the total object count for the FL and TW surrogates
	// (default 150,000). Large enough that the paper's 50x50 default grid
	// still gets tens of objects per cell — the regime where early
	// termination matters.
	SizeReal int
	// SizeSynthetic is the total object count for UN and CL (default
	// 100,000).
	SizeSynthetic int
	// ScaleUnit is the per-step object count of the Figure 8 scalability
	// sweep: sizes are {64, 128, 256, 512} x ScaleUnit (default 400,
	// mirroring the paper's millions with thousands).
	ScaleUnit int
	// MapSlots and ReduceSlots bound cluster concurrency (default: number
	// of CPUs).
	MapSlots    int
	ReduceSlots int
	// Quick trims each sweep to its first and last point; used by smoke
	// tests.
	Quick bool
	// Repeat runs every measured cell this many times and keeps the
	// fastest (default 1). Use 3+ when comparing two runs, to factor out
	// scheduler and GC noise.
	Repeat int
	// Verify proves result identity for every measured figure cell: the
	// engine's planned execution is compared against an unplanned full
	// scan of the in-memory object slice, and the jobs the lb and sh
	// figures run directly against the centralized R-tree evaluator; the
	// ranked results must match exactly. Rows carry "verified": true in
	// the JSON output.
	Verify bool
}

func (c Config) withDefaults() Config {
	if c.SizeReal <= 0 {
		c.SizeReal = 150000
	}
	if c.SizeSynthetic <= 0 {
		c.SizeSynthetic = 100000
	}
	if c.ScaleUnit <= 0 {
		c.ScaleUnit = 400
	}
	if c.MapSlots <= 0 {
		c.MapSlots = runtime.NumCPU()
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = runtime.NumCPU()
	}
	return c
}

// Defaults of Table 3 (default values in bold there): 3 query keywords,
// radius 10% of the cell edge, k = 10, grid 50x50 for the real datasets
// and 15x15 for the synthetic ones.
const (
	defaultKeywords = 3
	defaultRadiusPc = 10
	defaultK        = 10
	defaultGridReal = 50
	defaultGridSyn  = 15
)

// Cell is one measured point of a figure: one algorithm at one x-value.
type Cell struct {
	Millis            float64
	FeaturesExamined  int64
	ScoreComputations int64
	Duplicates        int64
	ShuffledRecords   int64
	// Per-phase breakdown: read/decode and map work happens inside the map
	// phase, merge and scoring inside the reduce phase. Their sum can be
	// under Millis (scheduling gaps) but attributes where a format change
	// lands.
	MapMillis    float64
	ReduceMillis float64
	// Planner and decoded-segment-cache activity of the engine's planned
	// path; all zero for the figures that run core jobs directly.
	BlocksScanned      int64
	BlocksPruned       int64
	PlanRecordsSkipped int64
	SegCacheHits       int64
	SegCacheMisses     int64
	// Segment I/O of the engine's planned path: SegBytesSelected is the
	// stored size of the blocks the plan selected (deterministic);
	// SegBytesRead/SegBytesDecoded are the cold-pass storage reads and
	// their decoded size (the maximum across repeats — warm repeats read
	// nothing).
	SegBytesRead     int64
	SegBytesDecoded  int64
	SegBytesSelected int64
	// Verified records that this cell's results were proven identical to
	// the reference (Config.Verify).
	Verified bool
}

// Figure is one reproduced figure panel: a table of series (one per
// algorithm) over the swept x-values.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	XVals  []string
	Series []string // series labels, usually algorithm names
	Data   map[string]map[string]Cell
}

func newFigure(id, title, xlabel string) *Figure {
	return &Figure{ID: id, Title: title, XLabel: xlabel, Data: make(map[string]map[string]Cell)}
}

func (f *Figure) add(series, x string, c Cell) {
	if f.Data[series] == nil {
		f.Data[series] = make(map[string]Cell)
		f.Series = append(f.Series, series)
	}
	if _, seen := f.Data[series][x]; !seen {
		found := false
		for _, v := range f.XVals {
			if v == x {
				found = true
				break
			}
		}
		if !found {
			f.XVals = append(f.XVals, x)
		}
	}
	f.Data[series][x] = c
}

// WriteTable renders the figure as an aligned text table of milliseconds,
// one row per x-value and one column per series — the same rows/series the
// paper plots.
func (f *Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title)
	cols := []string{f.XLabel}
	cols = append(cols, f.Series...)
	widths := make([]int, len(cols))
	rows := [][]string{cols}
	for _, x := range f.XVals {
		row := []string{x}
		for _, s := range f.Series {
			c, ok := f.Data[s][x]
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", c.Millis))
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var sb strings.Builder
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(cell, widths[i]))
		}
		fmt.Fprintln(w, sb.String())
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", len(sb.String())))
		}
	}
}

// WriteCounters renders the work counters behind the timings: feature
// objects examined per algorithm and x-value. This is the machine-
// independent signature of early termination.
func (f *Figure) WriteCounters(w io.Writer) {
	fmt.Fprintf(w, "# %s — features examined in Reduce (early-termination effect)\n", f.ID)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-10s", s)
		for _, x := range f.XVals {
			if c, ok := f.Data[s][x]; ok {
				fmt.Fprintf(w, "  %s=%d", x, c.FeaturesExamined)
			}
		}
		fmt.Fprintln(w)
	}
}

// Row is one measured point in the machine-readable output: one series
// (algorithm) at one swept x-value of one figure. MapMillis/ReduceMillis
// break the latency into its phases — read+decode+map+sort versus
// merge+reduce — so a storage-format win is attributable: a format change
// moves map_millis (and the seg_cache_* / blocks_* counters), a scoring
// change moves reduce_millis. Verified marks rows whose results were
// proven identical to the full-scan reference.
type Row struct {
	Figure       string           `json:"figure"`
	Series       string           `json:"series"`
	X            string           `json:"x"`
	Millis       float64          `json:"millis"`
	MapMillis    float64          `json:"map_millis"`
	ReduceMillis float64          `json:"reduce_millis"`
	Verified     bool             `json:"verified,omitempty"`
	Counters     map[string]int64 `json:"counters"`
}

// Rows flattens the figure into machine-readable rows, in sweep order.
func (f *Figure) Rows() []Row {
	var out []Row
	for _, x := range f.XVals {
		for _, s := range f.Series {
			c, ok := f.Data[s][x]
			if !ok {
				continue
			}
			out = append(out, Row{
				Figure:       f.ID,
				Series:       s,
				X:            x,
				Millis:       c.Millis,
				MapMillis:    c.MapMillis,
				ReduceMillis: c.ReduceMillis,
				Verified:     c.Verified,
				Counters: map[string]int64{
					"features_examined":    c.FeaturesExamined,
					"score_computations":   c.ScoreComputations,
					"duplicates":           c.Duplicates,
					"shuffled_records":     c.ShuffledRecords,
					"blocks_scanned":       c.BlocksScanned,
					"blocks_pruned":        c.BlocksPruned,
					"plan_records_skipped": c.PlanRecordsSkipped,
					"seg_cache_hits":       c.SegCacheHits,
					"seg_cache_misses":     c.SegCacheMisses,
					"seg_bytes_read":       c.SegBytesRead,
					"seg_bytes_decoded":    c.SegBytesDecoded,
					"seg_bytes_selected":   c.SegBytesSelected,
				},
			})
		}
	}
	return out
}

// WriteJSON emits the flattened rows of the figures as one indented JSON
// array.
func WriteJSON(w io.Writer, figures []*Figure) error {
	rows := []Row{}
	for _, f := range figures {
		rows = append(rows, f.Rows()...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Harness caches generated datasets across figures and owns the engines
// and the simulated cluster the experiments run on.
type Harness struct {
	cfg Config
	// cluster runs the jobs the harness builds itself: the full-scan
	// reference and the figures that sweep core options no engine exposes.
	cluster *mapreduce.Cluster
	cache   map[string]*data.Dataset
	// objCache memoizes Dataset.Objects per dataset: the merged slice is
	// read-only for jobs, and materializing 100k+ objects per measured run
	// would charge allocation and GC time to every figure point.
	objCache map[*data.Dataset][]data.Object
	// engines memoizes one sealed engine per dataset — loaded and sealed
	// once, exactly as a serving engine seals once and answers many
	// queries. It is a tiny LRU (most recent first): figures sweep one
	// dataset at a time, and retaining every family's segments, decoded
	// blocks and views for the whole 20-figure run would tax the later
	// figures with GC scans over hundreds of megabytes they never touch.
	engines []datasetEngine
}

type datasetEngine struct {
	ds  *data.Dataset
	eng *spq.Engine
}

// maxEngines bounds the harness's resident engines. Three covers every
// sweep's reuse pattern (consecutive figures share a dataset); rebuilding
// an evicted engine happens outside the measured window.
const maxEngines = 3

// New creates a harness.
func New(cfg Config) *Harness {
	cfg = cfg.withDefaults()
	return &Harness{
		cfg:      cfg,
		cluster:  mapreduce.NewCluster(nil, cfg.MapSlots, cfg.ReduceSlots),
		cache:    make(map[string]*data.Dataset),
		objCache: make(map[*data.Dataset][]data.Object),
	}
}

// engine returns the dataset's cached engine, loading and sealing it on
// first use: compressed columnar storage over the default seal grid, no
// query cache (every measured query must execute), and a segment cache
// that comfortably holds every decoded block of a bench dataset — the
// steady serving state of an engine whose working set fits its cache.
func (h *Harness) engine(ds *data.Dataset) (*spq.Engine, error) {
	for i, de := range h.engines {
		if de.ds == ds {
			copy(h.engines[1:i+1], h.engines[:i])
			h.engines[0] = de
			return de.eng, nil
		}
	}
	eng := spq.NewEngine(spq.Config{
		QueryCache:   -1,
		SegmentCache: 1 << 30,
		MapSlots:     h.cfg.MapSlots,
		ReduceSlots:  h.cfg.ReduceSlots,
	})
	dataObjs := make([]spq.DataObject, len(ds.Data))
	for i, o := range ds.Data {
		dataObjs[i] = spq.DataObject{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y}
	}
	feats := make([]spq.Feature, len(ds.Features))
	for i, o := range ds.Features {
		feats[i] = spq.Feature{ID: o.ID, X: o.Loc.X, Y: o.Loc.Y, Keywords: ds.Dict.Words(o.Keywords)}
	}
	if err := eng.AddData(dataObjs...); err != nil {
		return nil, fmt.Errorf("bench: load %s: %w", ds.Spec.Name, err)
	}
	if err := eng.AddFeature(feats...); err != nil {
		return nil, fmt.Errorf("bench: load %s: %w", ds.Spec.Name, err)
	}
	if err := eng.Seal(); err != nil {
		return nil, fmt.Errorf("bench: seal %s: %w", ds.Spec.Name, err)
	}
	h.engines = append([]datasetEngine{{ds, eng}}, h.engines...)
	if len(h.engines) > maxEngines {
		h.engines = h.engines[:maxEngines]
	}
	return eng, nil
}

// objects returns the cached merged object slice of ds.
func (h *Harness) objects(ds *data.Dataset) []data.Object {
	if objs, ok := h.objCache[ds]; ok {
		return objs
	}
	objs := ds.Objects()
	h.objCache[ds] = objs
	return objs
}

// dataset returns the (cached) scaled dataset of a family. Vocabulary
// sizes are scaled with the object count so that query selectivity — the
// fraction of features surviving the Map-side keyword prune — stays in the
// paper's regime despite the ~1000x smaller corpora.
func (h *Harness) dataset(family string, n int) *data.Dataset {
	key := fmt.Sprintf("%s/%d", family, n)
	if ds, ok := h.cache[key]; ok {
		return ds
	}
	var spec data.Spec
	switch family {
	case "FL":
		spec = data.FlickrSpec(n)
		spec.VocabSize = scaledVocab(n, 20)
	case "TW":
		spec = data.TwitterSpec(n)
		spec.VocabSize = scaledVocab(n, 15)
	case "UN":
		spec = data.UniformSpec(n)
	case "CL":
		spec = data.ClusteredSpec(n)
	default:
		panic("bench: unknown dataset family " + family)
	}
	ds := data.Generate(spec)
	h.cache[key] = ds
	return ds
}

func scaledVocab(n, div int) int {
	v := n / div
	if v < 500 {
		v = 500
	}
	return v
}

// queryKeywords samples nk distinct keywords token-weighted from the
// feature corpus: a random feature's random keyword, retried until
// distinct. This guarantees the query matches the corpus the way user
// queries match the text people actually write, while remaining seeded and
// reproducible.
func queryKeywords(ds *data.Dataset, nk int, seed int64) text.KeywordSet {
	r := newRand(seed)
	seen := make(map[uint32]bool, nk)
	ids := make([]uint32, 0, nk)
	for tries := 0; len(ids) < nk && tries < 10000; tries++ {
		f := ds.Features[r.Intn(len(ds.Features))]
		kw := f.Keywords[r.Intn(len(f.Keywords))]
		if !seen[kw] {
			seen[kw] = true
			ids = append(ids, kw)
		}
	}
	return text.NewKeywordSet(ids...)
}

// runOne executes one algorithm on one workload configuration through the
// dataset's engine and collects the measured cell: the query is planned
// against the block zone maps, executed over the surviving blocks through
// the decoded-segment cache, with the engine's slot-derived reducer count.
// The figure's swept grid sets the query-time grid, so the x-axis keeps
// its meaning.
func (h *Harness) runOne(ds *data.Dataset, alg core.Algorithm, q core.Query, gridN int) (Cell, error) {
	eng, err := h.engine(ds)
	if err != nil {
		return Cell{}, err
	}
	b := ds.Bounds()
	query := spq.Query{K: q.K, Radius: q.Radius, Keywords: ds.Dict.Words(q.Keywords)}
	var results []spq.Result
	cell, err := h.measure(func() (Cell, error) {
		before := eng.SegmentCacheStats()
		rep, err := eng.QueryReport(query, spq.WithAutoPlan(), spq.WithAlgorithm(alg),
			spq.WithGrid(gridN), spq.WithBounds(b.MinX, b.MinY, b.MaxX, b.MaxY))
		if err != nil {
			return Cell{}, err
		}
		p := rep.Plan
		if p.DataCellsPruned == p.DataCells || p.FeatureCellsPruned == p.FeatureCells {
			// Figure queries draw keywords from the corpus, so a provably
			// empty plan means the harness itself is broken.
			return Cell{}, fmt.Errorf("bench: plan proved figure query empty (k=%d r=%g)", q.K, q.Radius)
		}
		after := eng.SegmentCacheStats()
		results = rep.Results
		return Cell{
			Millis:             rep.TotalMillis,
			FeaturesExamined:   rep.Counters[core.CounterFeaturesExamined],
			ScoreComputations:  rep.Counters[core.CounterScoreComputations],
			Duplicates:         rep.Counters[core.CounterDuplicates],
			ShuffledRecords:    rep.Counters[mapreduce.CounterMapRecordsOut],
			MapMillis:          rep.MapMillis,
			ReduceMillis:       rep.ReduceMillis,
			BlocksScanned:      int64(p.Blocks - p.BlocksPruned),
			BlocksPruned:       int64(p.BlocksPruned),
			PlanRecordsSkipped: p.RecordsTotal - p.RecordsSelected,
			SegCacheHits:       after.Hits - before.Hits,
			SegCacheMisses:     after.Misses - before.Misses,
			SegBytesRead:       rep.Counters[spq.CounterSegBytesRead],
			SegBytesDecoded:    rep.Counters[spq.CounterSegBytesDecoded],
			SegBytesSelected:   rep.Counters[spq.CounterSegBytesSelected],
		}, nil
	})
	if err != nil {
		return Cell{}, err
	}
	if h.cfg.Verify {
		ref, err := h.runReference(ds, alg, q, gridN)
		if err != nil {
			return Cell{}, fmt.Errorf("bench: verify reference: %w", err)
		}
		if !sameResults(results, ref.Results) {
			return Cell{}, fmt.Errorf("bench: %v k=%d r=%g grid %d: engine results differ from the full-scan reference",
				alg, q.K, q.Radius, gridN)
		}
		cell.Verified = true
	}
	return cell, nil
}

// runReference executes one unplanned full-scan job over the in-memory
// object slice, outside any engine: the oracle Verify compares against.
func (h *Harness) runReference(ds *data.Dataset, alg core.Algorithm, q core.Query, gridN int) (*core.Report, error) {
	src := mapreduce.NewMemorySource(h.objects(ds), h.cfg.MapSlots*2)
	return core.Run(alg, src, q, core.Options{
		Cluster: h.cluster,
		Bounds:  ds.Bounds(),
		GridN:   gridN,
	})
}

// sameResults compares an engine's ranked results with the reference's
// exactly (ids, locations and bitwise scores): pruning and storage format
// may never change them.
func sameResults(a []spq.Result, b []core.ResultItem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != (spq.Result{ID: b[i].ID, X: b[i].Loc.X, Y: b[i].Loc.Y, Score: b[i].Score}) {
			return false
		}
	}
	return true
}

// jobCell is the measured cell of a job the harness ran itself.
func jobCell(run func() (*core.Report, error)) func() (Cell, error) {
	return func() (Cell, error) {
		rep, err := run()
		if err != nil {
			return Cell{}, err
		}
		return Cell{
			Millis:            float64(rep.Stats.Duration.Microseconds()) / 1000,
			FeaturesExamined:  rep.Counters[core.CounterFeaturesExamined],
			ScoreComputations: rep.Counters[core.CounterScoreComputations],
			Duplicates:        rep.Counters[core.CounterDuplicates],
			ShuffledRecords:   rep.Counters[mapreduce.CounterMapRecordsOut],
			MapMillis:         float64(rep.Stats.MapDuration.Microseconds()) / 1000,
			ReduceMillis:      float64(rep.Stats.ReduceDuration.Microseconds()) / 1000,
		}, nil
	}
}

// measure runs the query cfg.Repeat times and reports the cell with the
// minimum wall time — the standard way to factor scheduler and GC noise
// out of a single-machine measurement. Job counters are deterministic
// across repeats; the segment-cache deltas are not (the first repeat
// decodes cold, later ones hit), so the cell always carries the LAST
// repeat's cache deltas — the steady serving state the minimum wall time
// corresponds to — regardless of which repeat was fastest, while bytes
// read/decoded keep their maximum across repeats: the cold pass, wherever
// it landed.
func (h *Harness) measure(run func() (Cell, error)) (Cell, error) {
	var best Cell
	for i := 0; i < max(h.cfg.Repeat, 1); i++ {
		cell, err := run()
		if err != nil {
			return Cell{}, err
		}
		cell.SegBytesRead = max(cell.SegBytesRead, best.SegBytesRead)
		cell.SegBytesDecoded = max(cell.SegBytesDecoded, best.SegBytesDecoded)
		if i == 0 || cell.Millis < best.Millis {
			best = cell
			continue
		}
		best.SegCacheHits, best.SegCacheMisses = cell.SegCacheHits, cell.SegCacheMisses
		best.SegBytesRead, best.SegBytesDecoded = cell.SegBytesRead, cell.SegBytesDecoded
	}
	return best, nil
}

// trim reduces a sweep to its endpoints in Quick mode.
func (h *Harness) trim(xs []int) []int {
	if !h.cfg.Quick || len(xs) <= 2 {
		return xs
	}
	return []int{xs[0], xs[len(xs)-1]}
}

// FigureIDs lists every figure the harness can reproduce, in paper order.
func FigureIDs() []string {
	ids := []string{
		"5a", "5b", "5c", "5d",
		"6a", "6b", "6c", "6d",
		"7a", "7b", "7c", "7d",
		"8",
		"9a", "9b", "9c", "9d",
		"df", "lb", "sh",
	}
	return ids
}

// Run reproduces one figure panel by id (see FigureIDs).
func (h *Harness) Run(id string) (*Figure, error) {
	switch id {
	case "5a":
		return h.gridSweep(id, "FL", h.cfg.SizeReal, []int{35, 50, 75, 100}, core.Algorithms())
	case "5b":
		return h.keywordSweep(id, "FL", h.cfg.SizeReal, defaultGridReal, []int{1, 3, 5, 10}, core.Algorithms())
	case "5c":
		return h.radiusSweep(id, "FL", h.cfg.SizeReal, defaultGridReal, []int{10, 25, 50, 100}, core.Algorithms())
	case "5d":
		return h.topkSweep(id, "FL", h.cfg.SizeReal, defaultGridReal, []int{5, 10, 50, 100}, core.Algorithms())
	case "6a":
		return h.gridSweep(id, "TW", h.cfg.SizeReal, []int{35, 50, 75, 100}, core.Algorithms())
	case "6b":
		return h.keywordSweep(id, "TW", h.cfg.SizeReal, defaultGridReal, []int{1, 3, 5, 10}, core.Algorithms())
	case "6c":
		return h.radiusSweep(id, "TW", h.cfg.SizeReal, defaultGridReal, []int{10, 25, 50, 100}, core.Algorithms())
	case "6d":
		return h.topkSweep(id, "TW", h.cfg.SizeReal, defaultGridReal, []int{5, 10, 50, 100}, core.Algorithms())
	case "7a":
		return h.gridSweep(id, "UN", h.cfg.SizeSynthetic, []int{10, 15, 50, 100}, core.Algorithms())
	case "7b":
		return h.keywordSweep(id, "UN", h.cfg.SizeSynthetic, defaultGridSyn, []int{1, 3, 5, 10}, core.Algorithms())
	case "7c":
		return h.radiusSweep(id, "UN", h.cfg.SizeSynthetic, defaultGridSyn, []int{5, 10, 15, 50, 100}, core.Algorithms())
	case "7d":
		return h.topkSweep(id, "UN", h.cfg.SizeSynthetic, defaultGridSyn, []int{5, 10, 50, 100}, core.Algorithms())
	case "8":
		return h.scalability(id)
	case "9a":
		// The paper omits pSPQ on CL: with the default setup it takes ~48
		// hours on their cluster (Section 7.2.4). Same omission here.
		return h.gridSweep(id, "CL", h.cfg.SizeSynthetic, []int{10, 15, 50, 100}, earlyOnly())
	case "9b":
		return h.keywordSweep(id, "CL", h.cfg.SizeSynthetic, defaultGridSyn, []int{1, 3, 5, 10}, earlyOnly())
	case "9c":
		return h.radiusSweep(id, "CL", h.cfg.SizeSynthetic, defaultGridSyn, []int{5, 10, 15, 50, 100}, earlyOnly())
	case "9d":
		return h.topkSweep(id, "CL", h.cfg.SizeSynthetic, defaultGridSyn, []int{5, 10, 50, 100}, earlyOnly())
	case "df":
		return h.duplicationFactor(id)
	case "lb":
		return h.loadBalance(id)
	case "sh":
		return h.shuffleScaling(id)
	default:
		return nil, fmt.Errorf("bench: unknown figure %q (known: %s)", id, strings.Join(FigureIDs(), ", "))
	}
}

// RunAll reproduces every figure.
func (h *Harness) RunAll() ([]*Figure, error) {
	var out []*Figure
	for _, id := range FigureIDs() {
		f, err := h.Run(id)
		if err != nil {
			return nil, fmt.Errorf("bench: figure %s: %w", id, err)
		}
		out = append(out, f)
	}
	return out, nil
}

func earlyOnly() []core.Algorithm { return []core.Algorithm{core.ESPQLen, core.ESPQSco} }

func datasetTitle(family string) string {
	switch family {
	case "FL":
		return "Flickr surrogate"
	case "TW":
		return "Twitter surrogate"
	case "UN":
		return "Uniform"
	case "CL":
		return "Clustered"
	}
	return family
}

// defaultQuery builds the Table-3 default query for a dataset and grid.
func (h *Harness) defaultQuery(ds *data.Dataset, gridN, numKw, radiusPc, k int, seed int64) core.Query {
	cellEdge := ds.Bounds().Width() / float64(gridN)
	return core.Query{
		K:        k,
		Radius:   float64(radiusPc) / 100 * cellEdge,
		Keywords: queryKeywords(ds, numKw, seed),
	}
}

func (h *Harness) gridSweep(id, family string, size int, grids []int, algs []core.Algorithm) (*Figure, error) {
	fig := newFigure(id, fmt.Sprintf("%s: varying grid size (|q.W|=%d, r=%d%% of cell, k=%d)",
		datasetTitle(family), defaultKeywords, defaultRadiusPc, defaultK), "grid")
	ds := h.dataset(family, size)
	for _, g := range h.trim(grids) {
		q := h.defaultQuery(ds, g, defaultKeywords, defaultRadiusPc, defaultK, 42)
		for _, alg := range algs {
			cell, err := h.runOne(ds, alg, q, g)
			if err != nil {
				return nil, err
			}
			fig.add(alg.String(), fmt.Sprint(g), cell)
		}
	}
	return fig, nil
}

func (h *Harness) keywordSweep(id, family string, size, gridN int, kws []int, algs []core.Algorithm) (*Figure, error) {
	fig := newFigure(id, fmt.Sprintf("%s: varying query keywords (grid %d, r=%d%%, k=%d)",
		datasetTitle(family), gridN, defaultRadiusPc, defaultK), "keywords")
	ds := h.dataset(family, size)
	for _, nk := range h.trim(kws) {
		q := h.defaultQuery(ds, gridN, nk, defaultRadiusPc, defaultK, 42)
		for _, alg := range algs {
			cell, err := h.runOne(ds, alg, q, gridN)
			if err != nil {
				return nil, err
			}
			fig.add(alg.String(), fmt.Sprint(nk), cell)
		}
	}
	return fig, nil
}

func (h *Harness) radiusSweep(id, family string, size, gridN int, pcts []int, algs []core.Algorithm) (*Figure, error) {
	fig := newFigure(id, fmt.Sprintf("%s: varying query radius (grid %d, |q.W|=%d, k=%d)",
		datasetTitle(family), gridN, defaultKeywords, defaultK), "radius%")
	ds := h.dataset(family, size)
	for _, pc := range h.trim(pcts) {
		q := h.defaultQuery(ds, gridN, defaultKeywords, pc, defaultK, 42)
		for _, alg := range algs {
			cell, err := h.runOne(ds, alg, q, gridN)
			if err != nil {
				return nil, err
			}
			fig.add(alg.String(), fmt.Sprint(pc), cell)
		}
	}
	return fig, nil
}

func (h *Harness) topkSweep(id, family string, size, gridN int, ks []int, algs []core.Algorithm) (*Figure, error) {
	fig := newFigure(id, fmt.Sprintf("%s: varying k (grid %d, |q.W|=%d, r=%d%%)",
		datasetTitle(family), gridN, defaultKeywords, defaultRadiusPc), "k")
	ds := h.dataset(family, size)
	for _, k := range h.trim(ks) {
		q := h.defaultQuery(ds, gridN, defaultKeywords, defaultRadiusPc, k, 42)
		for _, alg := range algs {
			cell, err := h.runOne(ds, alg, q, gridN)
			if err != nil {
				return nil, err
			}
			fig.add(alg.String(), fmt.Sprint(k), cell)
		}
	}
	return fig, nil
}

// scalability is Figure 8: execution time vs dataset size for all three
// algorithms on uniform data.
func (h *Harness) scalability(id string) (*Figure, error) {
	fig := newFigure(id, fmt.Sprintf("Scalability: dataset size x%d objects (grid %d, |q.W|=%d, r=%d%%, k=%d)",
		h.cfg.ScaleUnit, defaultGridSyn, defaultKeywords, defaultRadiusPc, defaultK), "size")
	for _, mult := range h.trim([]int{64, 128, 256, 512}) {
		ds := h.dataset("UN", mult*h.cfg.ScaleUnit)
		q := h.defaultQuery(ds, defaultGridSyn, defaultKeywords, defaultRadiusPc, defaultK, 42)
		for _, alg := range core.Algorithms() {
			cell, err := h.runOne(ds, alg, q, defaultGridSyn)
			if err != nil {
				return nil, err
			}
			fig.add(alg.String(), fmt.Sprint(mult), cell)
		}
	}
	return fig, nil
}

// duplicationFactor validates the Section 6.2 analytical model against the
// measured duplication of uniform features, across radius fractions.
func (h *Harness) duplicationFactor(id string) (*Figure, error) {
	fig := newFigure(id, "Duplication factor: measured vs model df = πr²/α² + 4r/α + 1 (uniform features)", "r/α%")
	ds := h.dataset("UN", h.cfg.SizeSynthetic)
	g := defaultGridSyn
	for _, pc := range h.trim([]int{5, 10, 25, 50}) {
		q := h.defaultQuery(ds, g, defaultKeywords, pc, defaultK, 42)
		// The duplication-factor model validates against the full unpruned
		// map input; pruning would change the measured duplicates.
		cell, err := h.measure(jobCell(func() (*core.Report, error) {
			return h.runReference(ds, core.PSPQ, q, g)
		}))
		if err != nil {
			return nil, err
		}
		// Measured df: (relevant features + duplicates) / relevant features.
		relevant := int64(0)
		for _, f := range ds.Features {
			if f.Keywords.Intersects(q.Keywords) {
				relevant++
			}
		}
		measured := 1.0
		if relevant > 0 {
			measured = float64(relevant+cell.Duplicates) / float64(relevant)
		}
		cellEdge := ds.Bounds().Width() / float64(g)
		model := dupModel(cellEdge, q.Radius)
		x := fmt.Sprint(pc)
		fig.add("measured", x, Cell{Millis: measured})
		fig.add("model", x, Cell{Millis: model})
	}
	return fig, nil
}

// loadBalance is the extension experiment for the Section 7.2.4
// observation: with fewer reduce tasks than cells on clustered data, the
// default cell%R assignment overloads some reducers. It sweeps the reducer
// count and reports job time under round-robin vs the cost-based LPT
// assignment. Each point builds its cell→reducer table once from the full
// |Oi|·|Fi| weights, times the job on exactly that table, and reports the
// table's max/ideal load imbalance (x1000) in the features-examined
// counter column.
func (h *Harness) loadBalance(id string) (*Figure, error) {
	fig := newFigure(id, "Reducer load balancing on clustered data: round-robin vs cost-based LPT (grid 15)", "reducers")
	ds := h.dataset("CL", h.cfg.SizeSynthetic)
	gridN := defaultGridSyn
	q := h.defaultQuery(ds, gridN, defaultKeywords, defaultRadiusPc, defaultK, 42)
	g := grid.New(ds.Bounds(), gridN, gridN)
	weights, err := core.CellWeights(mapreduce.NewMemorySource(h.objects(ds), h.cfg.MapSlots*2), g, q)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for _, reducers := range h.trim([]int{2, 4, 8, 16}) {
		for _, s := range []struct {
			name  string
			table []int32
		}{
			{"round-robin", core.RoundRobinAssign(len(weights), reducers)},
			{"balanced-lpt", core.BalanceCells(weights, reducers)},
		} {
			cell, err := h.runJob(ds, q, h.cfg.MapSlots, core.Options{
				Cluster:     h.cluster,
				Bounds:      ds.Bounds(),
				GridN:       gridN,
				NumReducers: reducers,
				CellReducer: s.table,
			})
			if err != nil {
				return nil, err
			}
			cell.FeaturesExamined = int64(core.MaxLoad(weights, s.table, reducers) / (total / float64(reducers)) * 1000)
			fig.add(s.name, fmt.Sprint(reducers), cell)
		}
	}
	return fig, nil
}

// shuffleScaling is the extension experiment behind the map-side sort
// shuffle: on clustered data (the most shuffle- and reduce-heavy
// workload), it sweeps the worker slot count with sorting done inside the
// map tasks and merging inside the reduce tasks. Added slots should
// translate into lower wall time because no shuffle work is serialized
// between the phases.
func (h *Harness) shuffleScaling(id string) (*Figure, error) {
	fig := newFigure(id, fmt.Sprintf("Shuffle scaling on clustered data: map-side sort + per-reduce merge (grid %d, eSPQsco)",
		defaultGridSyn), "slots")
	ds := h.dataset("CL", h.cfg.SizeSynthetic)
	q := h.defaultQuery(ds, defaultGridSyn, defaultKeywords, defaultRadiusPc, defaultK, 42)
	for _, slots := range h.trim([]int{1, 2, 4, 8}) {
		cell, err := h.runJob(ds, q, slots, core.Options{
			Cluster: mapreduce.NewCluster(nil, slots, slots),
			Bounds:  ds.Bounds(),
			GridN:   defaultGridSyn,
		})
		if err != nil {
			return nil, err
		}
		fig.add("in-memory", fmt.Sprint(slots), cell)
	}
	return fig, nil
}

// runJob measures one eSPQsco job the harness builds itself, over the
// in-memory object slice in two splits per map slot. Under Verify its
// results must equal the centralized R-tree evaluator's exactly.
func (h *Harness) runJob(ds *data.Dataset, q core.Query, mapSlots int, opts core.Options) (Cell, error) {
	var results []core.ResultItem
	cell, err := h.measure(jobCell(func() (*core.Report, error) {
		rep, err := core.Run(core.ESPQSco, mapreduce.NewMemorySource(h.objects(ds), mapSlots*2), q, opts)
		if err == nil {
			results = rep.Results
		}
		return rep, err
	}))
	if err != nil {
		return Cell{}, err
	}
	if h.cfg.Verify {
		if !slices.Equal(results, core.RTreeCentralized(h.objects(ds), q)) {
			return Cell{}, fmt.Errorf("bench: eSPQsco k=%d r=%g grid %d reducers %d: results differ from the R-tree oracle",
				q.K, q.Radius, opts.GridN, opts.NumReducers)
		}
		cell.Verified = true
	}
	return cell, nil
}

// SortedCounterNames returns the counter names of a report sorted, for
// stable textual output in the CLI.
func SortedCounterNames(c map[string]int64) []string {
	names := make([]string, 0, len(c))
	for n := range c {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
