package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spq"
)

// The tracer records spans from the benchmark's own files, around the
// calls into each layer's public functions; nothing inside the program is
// instrumented. A nil *tracer is valid and records nothing, so the
// untraced passes run the same code with every call a no-op.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Req    string `json:"req"` // "workload/op": spans of one request share it
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Shadow marks a layer call the benchmark made beside the request to
	// time that layer alone (the request itself did not wait for it).
	Shadow bool `json:"shadow,omitempty"`
}

// queryObs is what one traced query left behind: its wall time at the
// spq.QueryReportContext boundary and the program's own report.
type queryObs struct {
	wallMs float64
	rep    *spq.Report
}

type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	queries []queryObs
	shadows int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id; 0 when tracing is off.
func (t *tracer) start(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known (children
// synthesised from the program's report, and shadow calls).
func (t *tracer) add(name, req string, parent int, start time.Time, d time.Duration, shadow bool) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: s, End: s + d.Nanoseconds(), Shadow: shadow})
}

// shadowEvery is how many traced queries share one shadow planner call.
const shadowEvery = 8

// sampleShadow reports whether the caller should make its shadow call now.
func (t *tracer) sampleShadow() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shadows++
	return t.shadows%shadowEvery == 1
}

// query wraps one call into the engine: the spq.query span, its core.map
// and core.reduce children laid out from the report's own phase durations
// (the report has no phase start times, so map starts where the job did
// and reduce follows it), and the observation the layer metrics read.
func (t *tracer) query(req string, parent int, call func() (*spq.Report, error)) (*spq.Report, error) {
	if t == nil {
		return call()
	}
	id := t.start("spq.query", req, parent)
	t0 := time.Now()
	rep, err := call()
	wall := time.Since(t0)
	t.end(id)
	if err != nil {
		return rep, err
	}
	if rep.Counters[spq.CounterCacheHit] == 0 {
		total := time.Duration(rep.TotalMillis * float64(time.Millisecond))
		jobStart := t0.Add(max(0, wall-total))
		mapD := time.Duration(rep.MapMillis * float64(time.Millisecond))
		t.add("core.map", req, id, jobStart, mapD, false)
		t.add("core.reduce", req, id, jobStart.Add(mapD), time.Duration(rep.ReduceMillis*float64(time.Millisecond)), false)
	}
	t.mu.Lock()
	t.queries = append(t.queries, queryObs{wallMs: ms(wall), rep: rep})
	t.mu.Unlock()
	return rep, nil
}

// selfTimes returns, per span name, each span's duration minus the part of
// it its child spans cover, in ms. Children of one parent do not overlap
// here (map precedes reduce, a handler has one engine call), so the
// covered part is the sum of the children.
func (t *tracer) selfTimes() map[string][]float64 {
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 && !s.Shadow {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		if !s.Shadow {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered[s.ID])/1e6)
		}
	}
	return out
}

// durations returns every span duration of one name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans and the per-name median self times.
func (t *tracer) write(dir, workload string) error {
	self := make(map[string]float64)
	for name, xs := range t.selfTimes() {
		self[name] = median(xs)
	}
	return writeJSON(filepath.Join(dir, "trace-"+workload+".json"), map[string]any{
		"workload":       workload,
		"self_ms_median": self,
		"spans":          t.spans,
	})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
