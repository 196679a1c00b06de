package core

import (
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"spq/internal/data"
	"spq/internal/grid"
	"spq/internal/mapreduce"
)

// viewChecksum digests every byte a reduce group could write through a
// view: each cell's columns and bucket index.
func viewChecksum(v *DataView) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(x uint64) {
		for i := range buf {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, c := range v.cells {
		word(uint64(len(c.ids)))
		for i := range c.ids {
			word(c.ids[i])
			word(math.Float64bits(c.xs[i]))
			word(math.Float64bits(c.ys[i]))
		}
		for _, s := range c.index.start {
			word(uint64(s))
		}
	}
	return h.Sum64()
}

// TestDataViewMemoryNeverWritten runs concurrent jobs over one shared view
// whose groups also receive data objects in-stream — an uncompacted
// delta's, in the engine — for every algorithm × scoring mode pair. Run it
// under -race: a group writing view memory that another group reads is a
// reported race. Afterwards the view must match the checksum taken at
// build, and every result must equal the run that shuffles all records,
// which is what a compacted engine does.
func TestDataViewMemoryNeverWritten(t *testing.T) {
	objs, dict := synthCorpus(6000, 9)
	// Every fifth data object stands in for an appended record: it reaches
	// its group in-stream, beside the view cell holding the rest.
	var sealed, stream []data.Object
	for i, o := range objs {
		if o.Kind == data.DataObject && i%5 != 0 {
			sealed = append(sealed, o)
		} else {
			stream = append(stream, o)
		}
	}
	const gridN = 6
	g := grid.New(unitBounds, gridN, gridN)
	view, err := BuildDataView(g, mapreduce.NewMemorySource(sealed, 4))
	if err != nil {
		t.Fatal(err)
	}
	overlaid := 0
	for _, o := range stream {
		if o.Kind == data.DataObject && view.cell(g.CellOf(o.Loc)) != nil {
			overlaid++
		}
	}
	if overlaid == 0 {
		t.Fatal("no in-stream data object lands in a view-seeded group")
	}
	sum := viewChecksum(view)

	base := Query{K: 8, Radius: 0.06, Keywords: dict.LookupAll([]string{"kw3", "kw11", "kw20"})}
	base.Size = len(base.Keywords)
	type run struct {
		alg Algorithm
		q   Query
	}
	var runs []run
	for _, alg := range Algorithms() {
		for _, mode := range []ScoringMode{ScoreRange, ScoreInfluence, ScoreNearest} {
			if alg.SupportsMode(mode) {
				q := base
				q.Mode = mode
				runs = append(runs, run{alg, q})
			}
		}
	}
	want := make([][]ResultItem, len(runs))
	for i, r := range runs {
		rep, err := Run(r.alg, mapreduce.NewMemorySource(objs, 4), r.q, Options{Bounds: unitBounds, GridN: gridN})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Results) == 0 {
			t.Fatalf("%v %v: no results; the corpus is off", r.alg, r.q.Mode)
		}
		want[i] = rep.Results
	}

	cluster := mapreduce.NewCluster(nil, 2, 2)
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := Run(r.alg, mapreduce.NewMemorySource(stream, 4), r.q, Options{
					Cluster: cluster, Bounds: unitBounds, GridN: gridN, NumReducers: 3, DataView: view,
				})
				if err != nil {
					t.Error(err)
					return
				}
				if len(rep.Results) != len(want[i]) {
					t.Errorf("%v %v: %d results over the view, want %d", r.alg, r.q.Mode, len(rep.Results), len(want[i]))
					return
				}
				for j := range want[i] {
					if rep.Results[j] != want[i][j] {
						t.Errorf("%v %v: result %d = %+v over the view, want %+v", r.alg, r.q.Mode, j, rep.Results[j], want[i][j])
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if viewChecksum(view) != sum {
		t.Fatal("view memory changed while jobs read it")
	}
}

// TestViewCacheRetiresOlderGenerations checks that Retire drops every view
// of an older generation at once, and that a build finishing for one after
// the fact — a query still running on an older snapshot — is served to its
// caller but not cached.
func TestViewCacheRetiresOlderGenerations(t *testing.T) {
	objs, _ := synthCorpus(400, 3)
	var dataObjs []data.Object
	for _, o := range objs {
		if o.Kind == data.DataObject {
			dataObjs = append(dataObjs, o)
		}
	}
	builds := 0
	build := func() (*DataView, error) {
		builds++
		return BuildDataView(grid.New(unitBounds, 4, 4), mapreduce.NewMemorySource(dataObjs, 1))
	}
	key := func(gen uint64, gridN int) ViewKey { return ViewKey{Gen: gen, GridN: gridN, Bounds: unitBounds} }
	get := func(c *ViewCache, k ViewKey) {
		t.Helper()
		if v, err := c.GetOrBuild(k, build); err != nil || v == nil {
			t.Fatalf("GetOrBuild(%+v) = %v, %v", k, v, err)
		}
	}
	cached := func(c *ViewCache) []ViewKey {
		c.mu.Lock()
		defer c.mu.Unlock()
		var keys []ViewKey
		for el := c.ll.Front(); el != nil; el = el.Next() {
			keys = append(keys, el.Value.(*viewEntry).key)
		}
		return keys
	}

	c := NewViewCache(0)
	for _, k := range []ViewKey{key(1, 4), key(1, 5), key(2, 4), key(1, 4)} {
		get(c, k)
	}
	if builds != 3 || len(cached(c)) != 3 {
		t.Fatalf("%d builds, %d cached views; want 3 and 3", builds, len(cached(c)))
	}
	c.Retire(2)
	if keys := cached(c); len(keys) != 1 || keys[0] != key(2, 4) || c.records != len(dataObjs) {
		t.Fatalf("after Retire(2): cached %+v holding %d records, want only generation 2's view", keys, c.records)
	}
	// A retired generation's view is still built for the query that asks,
	// every time, but never cached again.
	get(c, key(1, 4))
	get(c, key(1, 4))
	if builds != 5 || len(cached(c)) != 1 {
		t.Fatalf("retired generation: %d builds and %d cached views, want 5 and 1", builds, len(cached(c)))
	}

	// A build for generation 2 already running when generation 3 retires
	// it finishes for its caller, uncached.
	started, release := make(chan struct{}), make(chan struct{})
	late := make(chan *DataView)
	go func() {
		v, _ := c.GetOrBuild(key(2, 9), func() (*DataView, error) {
			close(started)
			<-release
			return build()
		})
		late <- v
	}()
	<-started
	c.Retire(3)
	close(release)
	if v := <-late; v == nil {
		t.Fatal("late build returned no view to its caller")
	}
	c.Retire(2) // the floor never moves back
	get(c, key(2, 4))
	if keys := cached(c); len(keys) != 0 || c.records != 0 {
		t.Fatalf("after Retire(3): cached %+v holding %d records, want none", keys, c.records)
	}
	get(c, key(3, 4))
	if keys := cached(c); len(keys) != 1 || keys[0] != key(3, 4) {
		t.Fatalf("current generation not cached: %+v", keys)
	}
}

// BenchmarkDataViewBytesPerRecord measures what one data object costs a
// cached view, in live heap bytes per record (the figure behind
// DefaultViewCacheRecords), on 100k objects over a 48x48 grid.
func BenchmarkDataViewBytesPerRecord(b *testing.B) {
	objs, _ := synthCorpus(200000, 1)
	var dataObjs []data.Object
	for _, o := range objs {
		if o.Kind == data.DataObject {
			dataObjs = append(dataObjs, o)
		}
	}
	src := mapreduce.NewMemorySource(dataObjs, 8)
	g := grid.New(unitBounds, 48, 48)
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := int64(ms.HeapAlloc)
		v, err := BuildDataView(g, src)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(int64(ms.HeapAlloc)-before)/float64(v.Records()), "B/record")
		runtime.KeepAlive(v)
	}
}
