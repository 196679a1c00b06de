package spq

import (
	"container/list"
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
)

// Query result cache. A storage generation is immutable once published,
// so a query's report is fully determined by (storage generation,
// canonicalized query, execution options): repeated queries — the common
// case under serving traffic — can skip the MapReduce job entirely.
// Entries are keyed on the generation, which every committed append batch
// and every compaction bumps, so a mutation invalidates every cached
// report without any explicit flush: a query can never be served a report
// computed against an older generation than the snapshot it runs on.

// Per-report cache counters. A report served from the cache carries
// CounterCacheHit = 1 (its other counters and timings are those of the
// original execution); a report that ran carries CounterCacheMiss = 1.
const (
	CounterCacheHit  = "spq.cache.hit"
	CounterCacheMiss = "spq.cache.miss"
)

// DefaultQueryCacheSize is the default capacity (in cached reports) of the
// engine's query cache; see Config.QueryCache.
const DefaultQueryCacheSize = 256

// CacheStats is the cumulative outcome of the engine's query cache.
type CacheStats struct {
	// Hits and Misses count cache lookups since the engine was created.
	// Queries run with WithCache(false) never look up and count as neither.
	Hits, Misses int64
	// Entries is the number of reports currently cached.
	Entries int
}

// queryCache is a mutex-guarded LRU over canonical query keys. Lookups and
// insertions are O(1); the cache stores canonical reports and hands out
// defensive copies, so callers may freely mutate what they receive.
type queryCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	hits    int64
	misses  int64
}

type cacheEntry struct {
	key string
	rep *Report
}

func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element, capacity),
	}
}

// get returns a copy of the cached report for key, marked as a hit.
func (c *queryCache) get(key string) (*Report, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	rep := el.Value.(*cacheEntry).rep
	c.mu.Unlock()
	out := copyReport(rep)
	if out.Counters == nil {
		out.Counters = make(map[string]int64, 1)
	}
	out.Counters[CounterCacheHit] = 1
	return out, true
}

// put stores a copy of the report under key, evicting the least recently
// used entry when full. Concurrent executions of the same query may both
// put; the last one wins, which is harmless because their reports carry
// identical results.
func (c *queryCache) put(key string, rep *Report) {
	stored := copyReport(rep)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).rep = stored
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, rep: stored})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// stats snapshots the cumulative hit/miss counts and current size.
func (c *queryCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len()}
}

// copyReport deep-copies the parts of a report a caller could mutate.
func copyReport(r *Report) *Report {
	cp := *r
	if r.Results != nil {
		cp.Results = append([]Result(nil), r.Results...)
	}
	if r.Counters != nil {
		cp.Counters = maps.Clone(r.Counters)
	}
	if r.Plan != nil {
		p := *r.Plan
		cp.Plan = &p
	}
	if r.Delta != nil {
		d := *r.Delta
		cp.Delta = &d
	}
	return &cp
}

// cacheKey canonicalizes one query execution. Everything that can change
// the report given a fixed storage generation participates: the query
// itself (keywords sorted and de-duplicated, radius by exact bit pattern),
// the algorithm, and every execution option that alters the job or the
// plan — including WithDelta(false), since base-only and base+delta reads of
// the same generation may differ. The generation prefixes the key, so
// appends and compactions invalidate by construction.
func cacheKey(gen uint64, q Query, cfg *queryConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "g%d|a%d|k%d|r%x|m%d|G%d|R%d|D%t|",
		gen, cfg.alg, q.K, math.Float64bits(q.Radius), q.Mode,
		cfg.gridN, cfg.reducers, cfg.noDelta)
	if cfg.bounds != nil {
		fmt.Fprintf(&b, "B%x,%x,%x,%x|",
			math.Float64bits(cfg.bounds.MinX), math.Float64bits(cfg.bounds.MinY),
			math.Float64bits(cfg.bounds.MaxX), math.Float64bits(cfg.bounds.MaxY))
	}
	kws := append([]string(nil), q.Keywords...)
	sort.Strings(kws)
	for i, kw := range kws {
		if i > 0 && kw == kws[i-1] {
			continue // duplicates don't change the keyword set
		}
		// Length-prefixed: a bare separator would let distinct sets like
		// {"a\x00b"} and {"a","b"} collide on one key and serve the wrong
		// cached report.
		fmt.Fprintf(&b, "%d:%s", len(kw), kw)
	}
	return b.String()
}
