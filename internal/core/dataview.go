package core

import (
	"container/list"
	"fmt"
	"sync"

	"spq/internal/data"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// DataView is the dense query-grid layout of a storage generation's data
// objects: for every query-grid cell, the cell's data objects as id and
// coordinate columns in bucket order, the reduce-side index prebuilt. It exists
// because the data half of an SPQ job is query-independent given the grid:
// data objects carry no keywords, never duplicate (only features fan out
// under Lemma 1), and land in exactly one cell — so shuffling them
// per-query sorts, copies and merges the same 50% of the input into the
// same buckets every time. A view computes that bucketing once over every
// sealed data block of a generation; queries sharing (generation, grid)
// reuse it through ViewCache, and their MapReduce jobs read only feature
// records plus the data records the view lacks (an uncompacted delta's).
// Reduce tasks resolve their cell's sealed objects directly from the view,
// exactly as if the records had arrived in-stream first (the comparator
// guarantees data before features, so preloading is order-equivalent), and
// the in-stream data objects join the group beside them in a cell of the
// same layout (see reduceScratch), making results bit-identical to the
// shuffled path.
type DataView struct {
	gridN  int
	bounds geo.Rect
	// records is the total object count, the unit of ViewCache accounting.
	records int
	cells   []viewCell // indexed by grid.CellID
}

// BuildDataView lays the source's data objects out over the query grid,
// each cell sealed into bucket order with its index (viewCell.seal). The
// source must yield data objects only; feature objects are rejected,
// because silently accepting them would drop their scores from every
// query using the view, and so are objects at a non-finite location.
func BuildDataView(g *grid.Grid, src mapreduce.Source[data.Object]) (*DataView, error) {
	splits, err := src.Splits()
	if err != nil {
		return nil, err
	}
	v := &DataView{gridN: dimsOf(g), bounds: g.Bounds(), cells: make([]viewCell, g.NumCells())}
	staged := make([]columns, len(v.cells))
	var bad error
	for _, s := range splits {
		err := s.Each(func(o data.Object) bool {
			switch {
			case o.Kind != data.DataObject:
				bad = fmt.Errorf("core: data view source yielded a feature object")
			case !o.Loc.Finite():
				bad = fmt.Errorf("core: data view source yielded object %d at non-finite location %v", o.ID, o.Loc)
			}
			if bad != nil {
				return false
			}
			staged[g.CellOf(o.Loc)].add(o.ID, o.Loc.X, o.Loc.Y)
			v.records++
			return true
		})
		if err != nil {
			return nil, err
		}
		if bad != nil {
			return nil, bad
		}
	}
	// Every cell's columns are a window of three view-wide slices, so the
	// view holds no per-cell growth slack.
	ids, xs, ys := make([]uint64, v.records), make([]float64, v.records), make([]float64, v.records)
	off := 0
	for i, in := range staged {
		n := len(in.ids)
		if n == 0 {
			continue
		}
		c := &v.cells[i]
		c.ids, c.xs, c.ys = ids[off:off:off+n], xs[off:off:off+n], ys[off:off:off+n]
		c.seal(in)
		off += n
	}
	return v, nil
}

// Records returns the number of data objects the view holds.
func (v *DataView) Records() int { return v.records }

// cell returns the view cell for id, or nil when the cell holds no data.
func (v *DataView) cell(id grid.CellID) *viewCell {
	if int(id) < 0 || int(id) >= len(v.cells) {
		return nil
	}
	if len(v.cells[id].ids) == 0 {
		return nil
	}
	return &v.cells[id]
}

// matches reports whether the view was built for this job's grid.
func (v *DataView) matches(g *grid.Grid) bool {
	return v.gridN == dimsOf(g) && v.bounds == g.Bounds()
}

func dimsOf(g *grid.Grid) int {
	nx, _ := g.Dims()
	return nx
}

// Data-view counters. The engine reports exactly one of them on a query
// whose reduce tasks read its own view: a miss means the query built the
// view (the build failed and was retried, if need be), a hit that it found
// the view cached or shared a concurrent query's build. A shipped job
// whose workers serve the sealed data (WireInfo.DataBlocks) reports one
// miss per worker that built its view, through the building reduce task's
// counter deltas, and no hit.
const (
	CounterViewHit  = "spq.view.hit"
	CounterViewMiss = "spq.view.miss"
)

// ViewKey identifies one data view: the storage generation whose sealed
// data blocks it holds and the query grid (size and bounds) it lays them
// out over. It names no block selection, because a view holds every sealed
// data block of its generation: any superset of a query's pruned data
// selection is safe, since a data block the planner pruned has no surviving
// feature within r, so its objects score 0 and a reducer never reports
// them. Queries that differ in keywords and radius therefore share a view;
// only the grid splits them.
type ViewKey struct {
	Gen    uint64
	GridN  int
	Bounds geo.Rect
}

// DefaultViewCacheRecords is the default ViewCache budget, in cached data
// objects. A cached object costs about 28 bytes of live heap — its id and
// two coordinate columns, plus its share of the cells and their bucket
// offsets (BenchmarkDataViewBytesPerRecord measures it) — so the default
// is on the order of 56 MiB.
const DefaultViewCacheRecords = 1 << 21

// ViewCache is an LRU over data views, budgeted by total cached records
// rather than entry count: one view of a 10M-object generation should not
// cost the same as one view of a 10k-object test corpus. A view is only
// ever useful to queries of its own generation, so Retire drops every view
// of the generations a compaction superseded instead of leaving them to
// the LRU.
type ViewCache struct {
	mu      sync.Mutex
	budget  int
	records int
	ll      *list.List
	entries map[ViewKey]*list.Element
	// floor is the oldest generation still cached: views of older ones are
	// neither kept nor stored (see Retire).
	floor uint64
	// inflight deduplicates concurrent builds of the same view (see
	// GetOrBuild): after a generation bump every in-flight query misses at
	// once, and N redundant full-dataset builds would multiply both the
	// build CPU and the transient allocation by the client count.
	inflight map[ViewKey]*viewBuild
}

// viewBuild is one in-progress GetOrBuild computation.
type viewBuild struct {
	done chan struct{}
	view *DataView
	err  error
}

type viewEntry struct {
	key  ViewKey
	view *DataView
}

// NewViewCache creates a cache holding up to budget records across its
// views. budget <= 0 selects DefaultViewCacheRecords.
func NewViewCache(budget int) *ViewCache {
	if budget <= 0 {
		budget = DefaultViewCacheRecords
	}
	return &ViewCache{
		budget:   budget,
		ll:       list.New(),
		entries:  make(map[ViewKey]*list.Element),
		inflight: make(map[ViewKey]*viewBuild),
	}
}

// GetOrBuild returns the cached view for key, or runs build exactly once
// to create it — concurrent callers for the same key wait for the single
// build instead of each building their own. A failed build is not cached;
// the next caller retries.
func (c *ViewCache) GetOrBuild(key ViewKey, build func() (*DataView, error)) (*DataView, error) {
	if c == nil {
		return build()
	}
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			return el.Value.(*viewEntry).view, nil
		}
		if b, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-b.done
			if b.err == nil {
				return b.view, nil
			}
			// The winning build failed; loop to retry (or join a newer
			// attempt).
			continue
		}
		b := &viewBuild{done: make(chan struct{})}
		c.inflight[key] = b
		c.mu.Unlock()

		b.view, b.err = build()
		c.mu.Lock()
		delete(c.inflight, key)
		if b.err == nil {
			c.putLocked(key, b.view)
		}
		c.mu.Unlock()
		close(b.done)
		return b.view, b.err
	}
}

// Retire drops every view of a generation older than gen, and from then on
// refuses to cache one: a query still running on an older snapshot may
// build such a view late, and uses it, but nothing else ever will.
func (c *ViewCache) Retire(gen uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen <= c.floor {
		return
	}
	c.floor = gen
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*viewEntry); e.key.Gen < gen {
			c.removeLocked(el)
		}
		el = next
	}
}

// putLocked stores a view, evicting least-recently-used entries until the
// record budget holds. A view larger than the whole budget is cached alone
// (the working set IS that one view). Views of retired generations are not
// stored.
func (c *ViewCache) putLocked(key ViewKey, v *DataView) {
	if key.Gen < c.floor {
		return
	}
	c.entries[key] = c.ll.PushFront(&viewEntry{key: key, view: v})
	c.records += v.records
	for c.records > c.budget && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back())
	}
}

func (c *ViewCache) removeLocked(el *list.Element) {
	e := c.ll.Remove(el).(*viewEntry)
	delete(c.entries, e.key)
	c.records -= e.view.records
}
