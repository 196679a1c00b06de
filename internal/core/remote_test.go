package core

import (
	"encoding/binary"
	"net/rpc"
	"strings"
	"testing"

	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// TestWorkerRejectsBadSplitRefs hands a live worker process map tasks whose
// split descriptors are malformed or name the retired "seq" kind. Each must
// come back as a permanent task failure in the RPC reply — the form the
// master's retry loop classifies on — and the worker must keep serving: a
// bad descriptor used to reach dfs.ReadRange unchecked and panic inside the
// RPC handler, killing the process.
func TestWorkerRejectsBadSplitRefs(t *testing.T) {
	w, err := mapreduce.StartWorker("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	fs := dfs.New(dfs.Config{NumNodes: 1, Replication: 1})
	if err := fs.Create("f", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	exec, err := mapreduce.NewRPCExecutor(fs, nil, []string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	client, err := rpc.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

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
