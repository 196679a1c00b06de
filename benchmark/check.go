package main

import (
	"spq"
	"spq/internal/core"
	"spq/internal/data"
)

// verifyOutputs runs after the last pass. Every query the workload names
// is answered once more by the in-process engine and checked under the key
// the passes used (on serve_mixed this is what ties each HTTP reply to the
// in-process answer); the first oracleSample are also answered by the
// centralized R-tree evaluator over the generated objects, which shares no
// code path with the MapReduce engine.
func verifyOutputs(b *bench, w workload) {
	objs, dict := w.oracle()
	opts := append(w.queryOpts(), spq.WithCache(false))
	qs := w.verifyQueries()
	closedLoop(len(qs), b.clients, func(i int) {
		kq := qs[i]
		rep, err := w.engine().QueryReport(kq.q, opts...)
		fp := ""
		if err == nil {
			fp = resultsFingerprint(rep.Results)
		}
		if !b.check.verify(kq.key, fp, err) || i >= oracleSample {
			return
		}
		cq := core.Query{K: kq.q.K, Radius: kq.q.Radius, Keywords: dict.LookupAll(kq.q.Keywords)}
		want := fingerprint(core.RTreeCentralized(objs, cq),
			func(r core.ResultItem) uint64 { return r.ID }, func(r core.ResultItem) float64 { return r.Score })
		// The oracle's answer becomes the reference under its own key, and
		// the engine's answer is then held to it.
		b.check.verify(kq.key+"/oracle", want, nil)
		b.check.verify(kq.key+"/oracle", fp, nil)
	})
}

// storedBytesPerRecord is the sealed segment bytes of a manifest (the
// framed column blocks of every cell) over the records they hold.
func storedBytesPerRecord(m *data.Manifest) float64 {
	var bytes, records int64
	for _, cells := range [][]data.CellStats{m.Data, m.Features} {
		for _, cs := range cells {
			records += int64(cs.Records)
			for _, bs := range cs.Blocks {
				bytes += int64(bs.Length)
			}
		}
	}
	return float64(bytes) / float64(records)
}
