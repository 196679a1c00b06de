package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"net/rpc"
	"strings"
	"testing"

	"spq/internal/data"
	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// loopbackWorker starts a worker node and a master over fs on loopback TCP
// and returns the executor (the master's handle) and a raw RPC client to
// the worker, for handing it task descriptors no orchestrator would build.
func loopbackWorker(t *testing.T, fs *dfs.FileSystem) (*mapreduce.RPCExecutor, *rpc.Client) {
	t.Helper()
	w, err := mapreduce.StartWorker("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Stop)
	exec, err := mapreduce.NewRPCExecutor(fs, []string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exec.Close() })
	client, err := rpc.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return exec, client
}

// TestWorkerRejectsBadSplitRefs hands a live worker process map tasks whose
// split descriptors are malformed or name a retired kind ("seq", "text").
// Each must come back as a permanent task failure in the RPC reply — the
// form the master's retry loop classifies on — and the worker must keep
// serving: a bad descriptor used to reach dfs.ReadRange unchecked and panic
// inside the RPC handler, killing the process.
func TestWorkerRejectsBadSplitRefs(t *testing.T) {
	fs := dfs.New(dfs.Config{NumNodes: 1, Replication: 1})
	if err := fs.Create("f", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	_, client := loopbackWorker(t, fs)

	spec, err := encodeQuerySpec(ESPQSco,
		Query{K: 1, Radius: 0.1, Keywords: text.NewKeywordSet(1)},
		Options{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, GridN: 2, Wire: &WireInfo{}})
	if err != nil {
		t.Fatal(err)
	}
	extra := func(vals ...uint64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	cases := []struct {
		name string
		ref  mapreduce.SplitRef
		want string
	}{
		{"retired seq kind", mapreduce.SplitRef{Kind: "seq", File: "f", Length: 10}, "unknown split kind"},
		{"retired text kind", mapreduce.SplitRef{Kind: "text", File: "f", Length: 12}, "unknown split kind"},
		{"negative offset", mapreduce.SplitRef{Kind: "col", File: "f", Offset: -100, Length: 10, Extra: extra(0, 3)}, "bad frame range"},
		{"zero length", mapreduce.SplitRef{Kind: "col", File: "f", Extra: extra(0, 3)}, "bad frame range"},
		{"zero records", mapreduce.SplitRef{Kind: "col", File: "f", Length: 10, Extra: extra(0, 0)}, "bad record count"},
		{"trailing extra bytes", mapreduce.SplitRef{Kind: "col", File: "f", Length: 10, Extra: extra(0, 3, 7)}, "trailing bytes"},
	}
	for i, c := range cases {
		ref := c.ref
		args := &mapreduce.RunTaskArgs{Desc: mapreduce.TaskDesc{
			Job: "bad-ref", JobID: "bad-ref-1", Kind: mapreduce.MapTask, Task: i, Attempt: 1,
			NumMaps: len(cases), NumReducers: 1, JobKind: WireKind, JobSpec: spec, Split: &ref,
		}}
		var reply mapreduce.RunTaskReply
		if err := client.Call("Worker.RunTask", args, &reply); err != nil {
			t.Fatalf("%s: worker unusable: %v", c.name, err)
		}
		if !strings.Contains(reply.Err, c.want) || !reply.Permanent {
			t.Errorf("%s: reply err=%q permanent=%v, want a permanent %q error", c.name, reply.Err, reply.Permanent, c.want)
		}
	}
}

// TestWorkerRejectsBadShuffleRuns hands a live worker reduce tasks whose
// shuffle references lie about the run: a negative or absurd record count
// used to size make([]Pair, 0, Records) inside the RPC handler (a makeslice
// panic, or an allocation of terabytes), bytes that do not decode, and a
// record whose counts no Map task can have produced must fail the attempt,
// not the process. Each comes back as a permanent error naming the run.
func TestWorkerRejectsBadShuffleRuns(t *testing.T) {
	fs := dfs.New(dfs.Config{NumNodes: 1, Replication: 1})
	if err := fs.Create("shuffle/bad/run", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	var hostile bytes.Buffer
	w := bufio.NewWriter(&hostile)
	if err := CellKeyCodec().Encode(w, CellKey{Cell: 1, Order: 1}); err != nil {
		t.Fatal(err)
	}
	if err := encodeRec(w, Rec{Kind: data.FeatureObject, ID: 4, Len: 2, Hits: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("shuffle/bad/hits", hostile.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, client := loopbackWorker(t, fs)
	spec, err := encodeQuerySpec(ESPQSco,
		Query{K: 1, Radius: 0.1, Keywords: text.NewKeywordSet(1)},
		Options{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, GridN: 2, Wire: &WireInfo{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		file    string
		records int
		want    string
	}{
		{"shuffle/bad/run", -1, "impossible record count -1"},
		{"shuffle/bad/run", 1 << 40, "impossible record count"},
		{"shuffle/bad/run", 7, "trailing bytes"}, // 1000 zero bytes are 25 whole 39-byte records and a tail
		{"shuffle/bad/run", 40, "record 25 value"},
		{"shuffle/bad/hits", 1, "3 hits among 2 keywords"},
	} {
		args := &mapreduce.RunTaskArgs{Desc: mapreduce.TaskDesc{
			Job: "bad-run", JobID: "bad-run-1", Kind: mapreduce.ReduceTask, Task: i, Attempt: 1,
			NumMaps: 1, NumReducers: 5, JobKind: WireKind, JobSpec: spec,
			Shuffle: []mapreduce.ShuffleRef{{File: c.file, Part: i, Records: c.records, Bytes: 1000}},
		}}
		var reply mapreduce.RunTaskReply
		if err := client.Call("Worker.RunTask", args, &reply); err != nil {
			t.Fatalf("%s records %d: worker unusable: %v", c.file, c.records, err)
		}
		if !strings.Contains(reply.Err, "shuffle run "+c.file) || !strings.Contains(reply.Err, c.want) || !reply.Permanent {
			t.Errorf("%s records %d: reply err=%q permanent=%v, want a permanent error naming the run and %q", c.file, c.records, reply.Err, reply.Permanent, c.want)
		}
	}
}

// hostileSpecs are query specs a worker must refuse: each decodes, but Run
// would reject the job it describes. They seed FuzzQuerySpec too.
func hostileSpecs(t testing.TB) map[string][]byte {
	t.Helper()
	q := Query{K: 1, Radius: 0.1, Keywords: text.NewKeywordSet(1)}
	unit := geo.Rect{MaxX: 1, MaxY: 1}
	specs := map[string][]byte{}
	for name, opts := range map[string]Options{
		"zero-width bounds": {Bounds: geo.Rect{MinX: 0.5, MaxX: 0.5, MaxY: 1}, GridN: 2},
		"NaN bounds":        {Bounds: geo.Rect{MinX: math.NaN(), MaxX: 1, MaxY: 1}, GridN: 2},
		"+Inf bounds":       {Bounds: geo.Rect{MaxX: math.Inf(1), MaxY: 1}, GridN: 2},
		"grid 2^40":         {Bounds: unit, GridN: 1 << 40},
		"reducers 2^40":     {Bounds: unit, GridN: 2, NumReducers: 1 << 40},
	} {
		opts.Wire = &WireInfo{}
		spec, err := encodeQuerySpec(ESPQSco, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		specs[name] = spec
	}
	return specs
}

// TestWorkerRejectsHostileSpecs hands a live worker map tasks whose job
// spec describes a job Run would reject. Degenerate bounds used to panic in
// grid.New inside the RPC handler, killing the worker process; NaN or
// infinite bounds and a 2^40 grid or reducer count were accepted. Each must
// come back as a permanent task failure, and the worker must keep serving.
func TestWorkerRejectsHostileSpecs(t *testing.T) {
	fs := dfs.New(dfs.Config{NumNodes: 1, Replication: 1})
	_, client := loopbackWorker(t, fs)
	i := 0
	for name, spec := range hostileSpecs(t) {
		i++
		args := &mapreduce.RunTaskArgs{Desc: mapreduce.TaskDesc{
			Job: "bad-spec", JobID: fmt.Sprintf("bad-spec-%d", i), Kind: mapreduce.MapTask, Attempt: 1,
			NumMaps: 1, NumReducers: 1, JobKind: WireKind, JobSpec: spec,
			Split: &mapreduce.SplitRef{Kind: "col", File: "f", Length: 10},
		}}
		var reply mapreduce.RunTaskReply
		if err := client.Call("Worker.RunTask", args, &reply); err != nil {
			t.Fatalf("%s: worker unusable: %v", name, err)
		}
		if !strings.Contains(reply.Err, "core: ") || !reply.Permanent {
			t.Errorf("%s: reply err=%q permanent=%v, want a permanent core validation error", name, reply.Err, reply.Permanent)
		}
	}
}

// FuzzQuerySpec feeds the worker's query-spec decoder arbitrary bytes. The
// spec reaches a worker off the wire, inside a net/rpc handler that does not
// recover: buildWireJob must return an error, never panic, and every spec
// it accepts must describe a job within the limits Run enforces — finite
// bounds, at most MaxGridN² cells and at most MaxReducers reduce tasks.
func FuzzQuerySpec(f *testing.F) {
	valid, err := encodeQuerySpec(PSPQ, Query{K: 3, Radius: 0.2, Keywords: text.NewKeywordSet(1, 4)},
		Options{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, GridN: 4, NumReducers: 3, Wire: &WireInfo{Gen: 2}})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := buildWireJob(valid, nil); err != nil {
		f.Fatalf("valid spec rejected: %v", err)
	}
	f.Add(valid)
	for _, spec := range hostileSpecs(f) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec []byte) {
		if _, err := buildWireJob(spec, nil); err != nil {
			return
		}
		var s querySpec
		if err := gob.NewDecoder(bytes.NewReader(spec)).Decode(&s); err != nil {
			t.Fatalf("accepted a spec that does not decode: %v", err)
		}
		opts := Options{Bounds: s.Bounds, GridN: s.GridN, NumReducers: s.NumReducers}
		b := s.Bounds
		for _, c := range [...]float64{b.MinX, b.MinY, b.MaxX, b.MaxY} {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatalf("accepted non-finite bounds %v", b)
			}
		}
		if n := opts.gridN(); n > MaxGridN {
			t.Fatalf("accepted a %dx%d grid, limit %d", n, n, MaxGridN)
		}
		if r := opts.numReducers(); r > MaxReducers {
			t.Fatalf("accepted %d reducers, limit %d", r, MaxReducers)
		}
	})
}
