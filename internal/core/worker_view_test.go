package core

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"spq/internal/data"
	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/grid"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// TestNonFiniteLocationRejected pins what a NaN or infinite coordinate
// does: it fails the job, whichever boundary it crosses — a caller's
// record source, a data view's source, a shuffle run off the wire. Let
// through, a data object at NaN in a cell of 32 or more objects would make
// the cell's bucket index NaN, so no feature would find any object of the
// cell, while a smaller cell scores the same objects.
func TestNonFiniteLocationRejected(t *testing.T) {
	objs, q := randomWorkload(7, 400, 20, 3)
	q.Radius = 0.3
	opts := Options{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, GridN: 2, NumReducers: 1}
	for _, bad := range []geo.Point{{X: math.NaN(), Y: 0.5}, {X: 0.5, Y: math.Inf(-1)}} {
		for _, kind := range []data.Kind{data.DataObject, data.FeatureObject} {
			in := append([]data.Object(nil), objs...)
			o := data.Object{Kind: kind, ID: 1 << 40, Loc: bad}
			if kind == data.FeatureObject {
				o.Keywords = q.Keywords
			}
			in = append(in, o)
			for _, alg := range Algorithms() {
				_, err := Run(alg, mapreduce.NewMemorySource(in, 3), q, opts)
				if err == nil || !strings.Contains(err.Error(), "non-finite location") {
					t.Errorf("%v, %v at %v: err = %v, want a non-finite location error", alg, kind, bad, err)
				}
			}
		}
		g := grid.New(opts.Bounds, 2, 2)
		view := []data.Object{{Kind: data.DataObject, ID: 1, Loc: geo.Point{X: 0.2, Y: 0.2}}, {Kind: data.DataObject, ID: 2, Loc: bad}}
		if _, err := BuildDataView(g, mapreduce.NewMemorySource(view, 1)); err == nil || !strings.Contains(err.Error(), "non-finite location") {
			t.Errorf("data view over an object at %v: err = %v", bad, err)
		}
	}
	var run bytes.Buffer
	w := bufio.NewWriter(&run)
	if err := encodeRec(w, Rec{Kind: data.DataObject, ID: 3, Loc: geo.Point{X: math.NaN()}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRec(bufio.NewReader(&run)); err == nil || !strings.Contains(err.Error(), "non-finite location") {
		t.Errorf("shuffle record at NaN: err = %v", err)
	}
}

// TestWiredJobRunsOnlyOnWorkers pins that a job with a wire form never
// runs in-process: its source leaves the sealed data objects to the
// workers' views, so an in-process run would return results without them.
// A cluster without workers, a split without a reference, a wire form that
// names no block list, and one beside an in-process-only option each fail
// the job before any task runs.
func TestWiredJobRunsOnlyOnWorkers(t *testing.T) {
	objs, q := randomWorkload(11, 2000, 30, 3)
	q.K = 8
	var dataObjs, feats []data.Object
	for _, o := range objs {
		if o.Kind == data.DataObject {
			dataObjs = append(dataObjs, o)
		} else {
			feats = append(feats, o)
		}
	}
	base := Options{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, GridN: 4, NumReducers: 3}
	view, err := BuildDataView(grid.New(base.Bounds, 4, 4), mapreduce.NewMemorySource(dataObjs, 2))
	if err != nil {
		t.Fatal(err)
	}
	fs := dfs.New(dfs.Config{NumNodes: 1, Replication: 1})
	exec, _ := loopbackWorker(t, fs)
	workers := mapreduce.NewCluster(fs, 2, 2)
	workers.Executor = exec
	blocks := data.BlockListFileName("g1")
	for name, c := range map[string]struct {
		opts func(*Options)
		want string
	}{
		"no executor":              {func(o *Options) {}, "no remote executor"},
		"memory source on workers": {func(o *Options) { o.Cluster = workers }, "serializes no reference"},
		"no block list":            {func(o *Options) { o.Wire.DataBlocks = "" }, "names no block list"},
		"not a block list":         {func(o *Options) { o.Wire.DataBlocks = "spq-objects-1.data.0" }, "names no block list"},
		"with a data view":         {func(o *Options) { o.DataView = view }, "takes no data view"},
		"with a fault injector": {func(o *Options) {
			o.FaultInjector = func(mapreduce.TaskKind, int, int) error { return nil }
		}, "takes no data view, fault injector"},
		"with a cell table": {func(o *Options) { o.CellReducer = make([]int32, 16) }, "cell→reducer table"},
	} {
		for _, alg := range Algorithms() {
			opts := base
			opts.Wire = &WireInfo{Gen: 1, DataBlocks: blocks}
			c.opts(&opts)
			rep, err := Run(alg, mapreduce.NewMemorySource(feats, 3), q, opts)
			if rep != nil || err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %v: report %v, err = %v, want no report and a %q error", name, alg, rep, err, c.want)
			}
		}
	}
}

// TestWorkerRejectsBadBlockLists hands a live worker tasks whose spec
// names a block list the worker cannot use: a name that is no block list
// at all, and list files that do not decode or describe impossible
// blocks. Each must come back as a permanent task failure, and the worker
// must keep serving.
func TestWorkerRejectsBadBlockLists(t *testing.T) {
	fs := dfs.New(dfs.Config{NumNodes: 1, Replication: 1})
	lists := map[string][]byte{
		"garbage":          {0xff, 0xff, 0xff},
		"count past end":   {200, 1, 'f'},
		"empty block":      data.EncodeBlockList([]data.CellStats{{File: "f", Blocks: []data.BlockStats{{Records: 3}}}}),
		"too many records": data.EncodeBlockList([]data.CellStats{{File: "f", Blocks: []data.BlockStats{{Records: 1 << 20, Length: 9}}}}),
		"trailing bytes":   append(data.EncodeBlockList(nil), 0),
	}
	for name, raw := range lists {
		if err := fs.Create(data.BlockListFileName(strings.ReplaceAll(name, " ", "-")), raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Create("shuffle/run", make([]byte, 39)); err != nil {
		t.Fatal(err)
	}
	_, client := loopbackWorker(t, fs)
	spec := func(blocks string) []byte {
		t.Helper()
		s, err := encodeQuerySpec(ESPQSco, Query{K: 1, Radius: 0.1, Keywords: text.NewKeywordSet(1)},
			Options{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, GridN: 2, Wire: &WireInfo{Gen: 1, DataBlocks: blocks}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	i := 0
	call := func(label, blocks, want string) {
		t.Helper()
		i++
		args := &mapreduce.RunTaskArgs{Desc: mapreduce.TaskDesc{
			Job: "bad-list", JobID: fmt.Sprintf("bad-list-%d", i), Kind: mapreduce.ReduceTask, Attempt: 1,
			NumMaps: 1, NumReducers: 1, JobKind: WireKind, JobSpec: spec(blocks),
			Shuffle: []mapreduce.ShuffleRef{{File: "shuffle/run", Records: 1, Bytes: 39}},
		}}
		var reply mapreduce.RunTaskReply
		if err := client.Call("Worker.RunTask", args, &reply); err != nil {
			t.Fatalf("%s: worker unusable: %v", label, err)
		}
		if !strings.Contains(reply.Err, want) || !reply.Permanent {
			t.Errorf("%s: reply err=%q permanent=%v, want a permanent %q error", label, reply.Err, reply.Permanent, want)
		}
	}
	call("not a block list", "shuffle/run", "names no block list")
	for name := range lists {
		call(name, data.BlockListFileName(strings.ReplaceAll(name, " ", "-")), "block list")
	}
}
