package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spq"
	"spq/internal/mapreduce"
)

// TestServerChurnUnderServing is the membership race test of the serving
// layer: HTTP queries hammer a distributed engine while one of its
// workers is repeatedly drained and rejoined. Every 200 must carry
// results byte-identical to the in-process reference (zero mismatches),
// and afterwards the admission gate must be fully released. Run with
// -race in CI.
func TestServerChurnUnderServing(t *testing.T) {
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
	addrs := make([]string, 2)
	for i := range addrs {
		w, err := mapreduce.StartWorker("127.0.0.1:0", 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Stop)
		addrs[i] = w.Addr()
	}
	cfg.Workers = addrs
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

	// Churner: drain worker-2, let traffic run on worker-1, rejoin, repeat.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.DrainWorker("worker-2"); err != nil {
				t.Errorf("drain: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
			if _, err := eng.AddWorker(addrs[1], "worker-2"); err != nil {
				t.Errorf("rejoin: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qi := (c + i) % len(queries)
				resp, code := postQuery(t, ts.URL, spq.QueryRequest{Query: queries[qi]})
				switch code {
				case http.StatusOK:
					got, _ := json.Marshal(resp.Results)
					if !bytes.Equal(got, want[qi]) {
						t.Errorf("q%d diverged under churn:\n got %s\nwant %s", qi, got, want[qi])
					}
				case http.StatusTooManyRequests:
					// acceptable under load
				default:
					t.Errorf("q%d got %d (%s %s)", qi, code, resp.Code, resp.Error)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

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
		t.Fatalf("gate wedged after churn: inflight=%d queued=%d", st.Inflight, st.Queued)
	}
	if st.Served == 0 {
		t.Fatal("no queries served under churn")
	}
	if st.Errors > 0 {
		t.Fatalf("%d internal errors while serving under churn", st.Errors)
	}
	if resp, code := postQuery(t, ts.URL, spq.QueryRequest{Query: queries[0]}); code != http.StatusOK {
		t.Fatalf("post-churn query got %d (%s %s)", code, resp.Code, resp.Error)
	}
}
