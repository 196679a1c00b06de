package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spq"
	"spq/internal/mapreduce"
)

// TestServerWorkerLossUnderServing is the worker-loss race test of the
// serving layer: HTTP queries hammer a distributed engine while one of
// its two workers stops. Every 200 must carry results byte-identical to
// the in-process reference (zero mismatches), the served reports must
// meter the loss exactly once, and afterwards the admission gate must be
// fully released. Run with -race in CI.
func TestServerWorkerLossUnderServing(t *testing.T) {
	base := spq.Config{
		Storage: spq.StorageDFSBinary, Nodes: 4, BlockSize: 8 << 10,
		MapSlots: 4, ReduceSlots: 2, Seed: 42, QueryCache: -1,
	}
	build := func(cfg spq.Config) *spq.Engine {
		t.Helper()
		e := spq.NewEngine(cfg)
		if err := e.LoadSynthetic("clustered", 1000); err != nil {
			t.Fatal(err)
		}
		if err := e.Seal(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ref := build(base)

	cfg := base
	workers := make([]*mapreduce.WorkerNode, 2)
	for i := range workers {
		w, err := mapreduce.StartWorker("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		workers[i] = w
		cfg.Workers = append(cfg.Workers, w.Addr())
	}
	eng := build(cfg)
	defer eng.Close()

	queries := engineQueries(t, ref, 6)
	want := make([][]byte, len(queries))
	for i, q := range queries {
		res, err := ref.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[i], _ = json.Marshal(res)
	}

	s := New(eng, Config{MaxInflight: 4, MaxQueue: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// post serves one query with its counters and adds the losses its
	// report metered to lost.
	var lost atomic.Int64
	post := func(qi int) int {
		body, _ := json.Marshal(spq.QueryRequest{Query: queries[qi]})
		resp, err := http.Post(ts.URL+"/query?counters=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		var out spq.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Error(err)
			return 0
		}
		switch resp.StatusCode {
		case http.StatusOK:
			lost.Add(out.Counters[spq.CounterExecWorkersLost])
			got, _ := json.Marshal(out.Results)
			if !bytes.Equal(got, want[qi]) {
				t.Errorf("q%d diverged under worker loss:\n got %s\nwant %s", qi, got, want[qi])
			}
		case http.StatusTooManyRequests:
			// acceptable under load
		default:
			t.Errorf("q%d got %d (%s %s)", qi, resp.StatusCode, out.Code, out.Error)
		}
		return resp.StatusCode
	}

	// worker-2 stops once a quarter of the requests have been answered,
	// so the rest run while its loss is found and its tasks move.
	const clients, perClient = 4, 8
	var answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				post((c + i) % len(queries))
				if answered.Add(1) == clients*perClient/4 {
					workers[1].Stop()
				}
			}
		}(c)
	}
	wg.Wait()

	// No wedged admission slots: the gate must return to fully idle and
	// still admit a fresh request.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Inflight == 0 && st.Queued == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("gate wedged after the worker loss: inflight=%d queued=%d", st.Inflight, st.Queued)
	}
	if st.Served == 0 {
		t.Fatal("no queries served under worker loss")
	}
	if st.Errors > 0 {
		t.Fatalf("%d internal errors while serving under worker loss", st.Errors)
	}
	if code := post(0); code != http.StatusOK {
		t.Fatalf("post-loss query got %d", code)
	}
	if n := lost.Load(); n != 1 {
		t.Errorf("served reports meter %d lost workers, want 1", n)
	}
}
