package main

import (
	"fmt"
	"time"

	"spq"
	"spq/internal/data"
	"spq/internal/text"
)

// ingestLoad is ingest_mixed: the clients share one operation stream in
// which every ingestEvery-th op appends ingestBatch data objects and
// ingestBatch features from a second dataset with disjoint ids, and the
// others are query_hot queries that see the delta. CompactAfter equals the
// records the stream appends, so the last append — and only it — crosses
// the threshold and re-seals. The appends mutate the engine, so every pass
// starts from a freshly built one.
type ingestLoad struct {
	system
	base    *inputs
	extra   *inputs
	cfg     spq.Config
	queries []spq.Query // one per query op, in stream order
	nOps    int
	appends int
}

func newIngestMixed(b *bench) workload {
	w := &ingestLoad{system: system{b: b, opts: []spq.QueryOption{spq.WithAutoPlan()}}}
	w.nOps = b.scaled(ingestOps)
	w.appends = (w.nOps + ingestEvery - 1) / ingestEvery
	w.base = generate("flickr", b.sized(ingestObjects), b.cfg.seed, 0)
	w.extra = generate("flickr", 2*ingestBatch*w.appends, b.cfg.seed+1, appendIDBase)
	// The oracle reads both datasets with the base dictionary, which holds
	// because data.Generate interns the whole vocabulary in one fixed order.
	for id, d := 0, w.extra.ds.Dict; id < d.Size(); id++ {
		if d.Word(uint32(id)) != w.base.ds.Dict.Word(uint32(id)) {
			panic("benchmark: generated datasets disagree on keyword ids")
		}
	}
	w.queries = w.base.hotQueries(b.rand, w.nOps-w.appends)
	w.cfg = b.baseConfig()
	w.cfg.CompactAfter = 2 * ingestBatch * w.appends
	return w
}

func (w *ingestLoad) setup() error {
	eng, err := loadEngine(w.cfg, w.base)
	w.eng = eng
	return err
}

func (w *ingestLoad) teardown() { w.closeEngine() }

// warm runs the first n query ops on the sealed base, before any append.
func (w *ingestLoad) warm(n int) {
	n = min(n, len(w.queries))
	closedLoop(n, w.b.clients, func(i int) {
		w.b.runQuery(nil, w.eng, fmt.Sprintf("warm%d", i), false, w.queries[i], w.opts)
	})
}

func (w *ingestLoad) pass(tr *tracer) *passResult {
	res := &passResult{samples: make([]opSample, w.nOps)}
	// turn[j] opens when append j-1 has committed: appends commit in stream
	// order, so a storage generation always holds the same records.
	turn := make([]chan struct{}, w.appends+1)
	for i := range turn {
		turn[i] = make(chan struct{})
	}
	close(turn[0])
	res.wall = closedLoop(w.nOps, w.b.clients, func(i int) {
		if i%ingestEvery != 0 {
			qi := i - i/ingestEvery - 1
			res.samples[i] = w.b.runQuery(tr, w.eng, fmt.Sprintf("q%d", qi), true, w.queries[qi], w.opts)
			return
		}
		j := i / ingestEvery
		<-turn[j]
		res.samples[i] = w.append(tr, j)
		close(turn[j+1])
	})
	return res
}

// append is one append op: AddData then AddFeature of batch j.
func (w *ingestLoad) append(tr *tracer, j int) opSample {
	key := fmt.Sprintf("a%d", j)
	id := tr.start("spq.append", w.b.cfg.workload+"/"+key, 0)
	t0 := time.Now()
	err := w.eng.AddData(w.extra.objs[j*ingestBatch : (j+1)*ingestBatch]...)
	if err == nil {
		err = w.eng.AddFeature(w.extra.feats[j*ingestBatch : (j+1)*ingestBatch]...)
	}
	d := time.Since(t0)
	tr.end(id)
	s := opSample{kind: opAppend, ms: ms(d)}
	// The delta is empty exactly when this append compacted.
	left := w.eng.DeltaLen()
	if left == 0 {
		s.kind = opCompact
	}
	if err == nil && left != 0 && left != 2*ingestBatch*(j+1) {
		err = fmt.Errorf("delta holds %d records after append %d, want %d", left, j, 2*ingestBatch*(j+1))
	}
	if err == nil && (left == 0) != (j == w.appends-1) {
		err = fmt.Errorf("append %d of %d: compacted=%v", j, w.appends, left == 0)
	}
	s.failed = !w.b.check.verify(key, "", err)
	return s
}

func (w *ingestLoad) rebuildEachPass() bool { return true }
func (w *ingestLoad) numOps() int           { return w.nOps }

// verifyQueries run on the engine the last pass left: the base plus every
// appended record, compacted.
func (w *ingestLoad) verifyQueries() []keyedQuery {
	return sampleQueries(w.b.rand, "final/q", w.queries, oracleSample)
}

func (w *ingestLoad) oracle() ([]data.Object, *text.Dict) {
	return append(w.base.ds.Objects(), w.extra.ds.Objects()...), w.base.ds.Dict
}

func (w *ingestLoad) dropInputs() { w.base, w.extra = nil, nil }
