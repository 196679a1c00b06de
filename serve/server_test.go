package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spq"
)

// ---- admission gate ----

func TestGateShedsWhenQueueFull(t *testing.T) {
	g := newGate(1, 1)
	if err := g.enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- g.enter(context.Background()) }()
	for i := 0; g.queueDepth() == 0; i++ {
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full: the next request is shed immediately.
	if err := g.enter(context.Background()); !errors.Is(err, spq.ErrOverloaded) {
		t.Fatalf("enter with full queue returned %v, want ErrOverloaded", err)
	}
	g.leave()
	if err := <-queued; err != nil {
		t.Fatalf("queued request not admitted after leave: %v", err)
	}
	g.leave()
}

func TestGateDeadlineEviction(t *testing.T) {
	g := newGate(1, 4)
	if err := g.enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.leave()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := g.enter(ctx)
	if !errors.Is(err, spq.ErrOverloaded) {
		t.Fatalf("deadline-evicted enter returned %v, want ErrOverloaded", err)
	}

	cctx, ccancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		ccancel()
	}()
	err = g.enter(cctx)
	if !errors.Is(err, spq.ErrCanceled) {
		t.Fatalf("canceled enter returned %v, want ErrCanceled", err)
	}
	if g.queueDepth() != 0 {
		t.Fatalf("queue depth %d after evictions, want 0", g.queueDepth())
	}
}

// ---- quotas ----

func TestQuotaTable(t *testing.T) {
	qt := newQuotaTable(QuotaConfig{RatePerSec: 1, Burst: 2})
	now := time.Unix(1000, 0)
	qt.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !qt.allow("a") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if qt.allow("a") {
		t.Fatal("request beyond burst allowed")
	}
	if !qt.allow("b") {
		t.Fatal("independent tenant denied")
	}
	now = now.Add(1500 * time.Millisecond) // refills 1.5 tokens
	if !qt.allow("a") {
		t.Fatal("request after refill denied")
	}
	if qt.allow("a") {
		t.Fatal("half-refilled bucket allowed a second request")
	}
	var nilTable *quotaTable
	if !nilTable.allow("anyone") {
		t.Fatal("disabled quota table denied a request")
	}
}

// ---- fake engine for deterministic admission tests ----

// fakeEngine is a controllable Engine: each query blocks until release is
// closed (when set), honoring ctx cancellation like the real engine.
type fakeEngine struct {
	release chan struct{}
	queries atomic.Int64
}

func (f *fakeEngine) QueryReportContext(ctx context.Context, q spq.Query, opts ...spq.QueryOption) (*spq.Report, error) {
	f.queries.Add(1)
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", spq.ErrCanceled, context.Cause(ctx))
		}
	}
	return &spq.Report{Results: []spq.Result{{ID: 1, Score: 0.5}}}, nil
}

func (f *fakeEngine) Generation() uint64         { return 7 }
func (f *fakeEngine) CacheStats() spq.CacheStats { return spq.CacheStats{} }

func postQuery(t *testing.T, url string, req spq.QueryRequest) (*spq.QueryResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out spq.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func validReq() spq.QueryRequest {
	return spq.QueryRequest{Query: spq.Query{K: 3, Radius: 0.1, Keywords: []string{"pizza"}}}
}

// TestServerShedsAtCapacity: with MaxInflight=1 and MaxQueue=1, a third
// concurrent request is shed with 429 instead of queueing unboundedly, and
// the admitted ones complete once the engine unblocks.
func TestServerShedsAtCapacity(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Config{MaxInflight: 1, MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, codes[i] = postQuery(t, ts.URL, validReq())
		}(i)
	}
	// Wait until one request is in flight and one is queued.
	for i := 0; s.gate.inflight() != 1 || s.gate.queueDepth() != 1; i++ {
		if i > 5000 {
			t.Fatalf("inflight=%d queued=%d, want 1/1", s.gate.inflight(), s.gate.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	resp, code := postQuery(t, ts.URL, validReq())
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow request got %d, want 429", code)
	}
	if resp.Code != spq.CodeOverloaded {
		t.Fatalf("overflow request code %q, want %q", resp.Code, spq.CodeOverloaded)
	}
	close(eng.release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("admitted request %d got %d, want 200", i, c)
		}
	}
	st := s.Stats()
	if st.Served != 2 || st.Shed != 1 {
		t.Fatalf("stats served=%d shed=%d, want 2/1", st.Served, st.Shed)
	}
}

// TestServerQuota429: a tenant over its quota is shed with 429 while other
// tenants keep being served — and the admission gate is not consumed, so
// the pool cannot be wedged by a quota-abusing tenant.
func TestServerQuota429(t *testing.T) {
	eng := &fakeEngine{}
	s := New(eng, Config{MaxInflight: 4, Quota: QuotaConfig{RatePerSec: 0.001, Burst: 1}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := validReq()
	req.Tenant = "greedy"
	if _, code := postQuery(t, ts.URL, req); code != http.StatusOK {
		t.Fatalf("first request got %d, want 200", code)
	}
	for i := 0; i < 3; i++ {
		resp, code := postQuery(t, ts.URL, req)
		if code != http.StatusTooManyRequests || resp.Code != spq.CodeOverloaded {
			t.Fatalf("over-quota request got %d/%q, want 429/overloaded", code, resp.Code)
		}
	}
	if s.gate.inflight() != 0 || s.gate.queueDepth() != 0 {
		t.Fatalf("quota sheds consumed the gate: inflight=%d queued=%d", s.gate.inflight(), s.gate.queueDepth())
	}
	other := validReq()
	other.Tenant = "patient"
	if _, code := postQuery(t, ts.URL, other); code != http.StatusOK {
		t.Fatalf("other tenant got %d, want 200", code)
	}
}

// TestServerCancellationFreesSlot: a client that disconnects mid-query
// releases its admission slot; the next request is served.
func TestServerCancellationFreesSlot(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Config{MaxInflight: 1, MaxQueue: 0})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(validReq())
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(hreq)
		errCh <- err
	}()
	for i := 0; s.gate.inflight() != 1; i++ {
		if i > 5000 {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled request returned no client error")
	}
	// The slot must come back without the engine ever unblocking release.
	for i := 0; s.gate.inflight() != 0; i++ {
		if i > 5000 {
			t.Fatal("canceled query never released its admission slot")
		}
		time.Sleep(time.Millisecond)
	}
	close(eng.release)
	if _, code := postQuery(t, ts.URL, validReq()); code != http.StatusOK {
		t.Fatalf("request after cancellation got %d, want 200", code)
	}
}

// TestServerErrorMapping checks the HTTP side of the error taxonomy.
func TestServerErrorMapping(t *testing.T) {
	eng := &fakeEngine{}
	s := New(eng, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Invalid query: K <= 0.
	bad := spq.QueryRequest{Query: spq.Query{K: 0, Radius: 0.1, Keywords: []string{"x"}}}
	bad.Algorithm = "nope"
	if resp, code := postQuery(t, ts.URL, bad); code != http.StatusBadRequest || resp.Code != spq.CodeInvalidQuery {
		t.Fatalf("unknown algorithm got %d/%q, want 400/invalid_query", code, resp.Code)
	}

	// Malformed body.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body got %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query got %d, want 405", resp.StatusCode)
	}
}

// TestServerDrain: Drain flips /healthz, refuses new queries with 503,
// and waits for in-flight queries to finish.
func TestServerDrain(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Config{MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		_, code := postQuery(t, ts.URL, validReq())
		inflight <- code
	}()
	for i := 0; s.gate.inflight() != 1; i++ {
		if i > 5000 {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for i := 0; !s.stopping.Load(); i++ {
		if i > 5000 {
			t.Fatal("drain flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	resp, code := postQuery(t, ts.URL, validReq())
	if code != http.StatusServiceUnavailable || resp.Code != spq.CodeClosed {
		t.Fatalf("query during drain got %d/%q, want 503/closed", code, resp.Code)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain got %d, want 503", hr.StatusCode)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v before in-flight query finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(eng.release)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight query during drain got %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain returned %v", err)
	}
}

// TestDrainDeadline: a drain whose context expires returns the context
// error instead of hanging on a stuck query.
func TestDrainDeadline(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(eng.release) // unblock the stuck query before ts.Close waits on it
	go func() {              // stuck on purpose; released by the deferred close
		body, _ := json.Marshal(validReq())
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	for i := 0; s.gate.inflight() != 1; i++ {
		if i > 5000 {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want DeadlineExceeded", err)
	}
}

// ---- real-engine integration ----

func testEngine(t *testing.T) *spq.Engine {
	t.Helper()
	e := spq.NewEngine(spq.Config{Seed: 42})
	if err := e.LoadSynthetic("uniform", 1500); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	return e
}

func engineQueries(t *testing.T, e *spq.Engine, n int) []spq.Query {
	t.Helper()
	kws := e.FrequentKeywords(12)
	if len(kws) < 4 {
		t.Fatalf("only %d frequent keywords", len(kws))
	}
	qs := make([]spq.Query, n)
	for i := range qs {
		qs[i] = spq.Query{
			K:        4,
			Radius:   0.05,
			Keywords: []string{kws[i%len(kws)], kws[(i*3+1)%len(kws)]},
		}
	}
	return qs
}

// TestServerRoundTrip: POST /query returns result payloads byte-identical
// to an in-process query.
func TestServerRoundTrip(t *testing.T) {
	e := testEngine(t)
	defer e.Close()
	s := New(e, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, q := range engineQueries(t, e, 6) {
		resp, code := postQuery(t, ts.URL, spq.QueryRequest{Query: q})
		if code != http.StatusOK {
			t.Fatalf("query got %d: %s (%s)", code, resp.Error, resp.Code)
		}
		want, err := e.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(resp.Results)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("served results diverge from in-process:\n got %s\nwant %s", gotJSON, wantJSON)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerConcurrentWithCompact is the race test of the serving layer:
// HTTP queries hammer the server while the engine takes delta appends and
// compacts between generations. Every response must be a 200 with results
// or a taxonomy-coded failure — no torn reads, no wedged gate. Run with
// -race in CI.
func TestServerConcurrentWithCompact(t *testing.T) {
	e := testEngine(t)
	defer e.Close()
	s := New(e, Config{MaxInflight: 4, MaxQueue: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	queries := engineQueries(t, e, 8)

	stop := make(chan struct{})
	var mut sync.WaitGroup
	mut.Add(1)
	go func() {
		defer mut.Done()
		id := uint64(1 << 20)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			id++
			if err := e.AddData(spq.DataObject{ID: id, X: 0.5, Y: 0.5}); err != nil {
				t.Error(err)
				return
			}
			if round%8 == 7 {
				if err := e.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, code := postQuery(t, ts.URL, spq.QueryRequest{Query: queries[(w+i)%len(queries)]})
				switch code {
				case http.StatusOK:
					if resp.Generation == 0 {
						t.Errorf("200 response without generation")
					}
				case http.StatusTooManyRequests:
					// acceptable under load
				default:
					t.Errorf("query got %d (%s %s)", code, resp.Code, resp.Error)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	mut.Wait()

	st := s.Stats()
	if st.Served == 0 {
		t.Fatal("no queries served")
	}
	if st.Errors > 0 {
		t.Fatalf("%d internal errors during concurrent serving", st.Errors)
	}
}

// TestMetricsEndpoints: /metrics renders the Prometheus families and
// /stats the JSON snapshot after traffic.
func TestMetricsEndpoints(t *testing.T) {
	eng := &fakeEngine{}
	s := New(eng, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, code := postQuery(t, ts.URL, validReq()); code != http.StatusOK {
		t.Fatalf("query got %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	text := body.String()
	for _, want := range []string{
		`spqd_requests_total{outcome="ok"} 1`,
		"spqd_request_seconds_count 1",
		"spqd_generation 7",
		"spqd_inflight 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}

	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if st.Served != 1 || st.Generation != 7 {
		t.Fatalf("stats served=%d gen=%d, want 1/7", st.Served, st.Generation)
	}
}

// TestDrainShutdownLeavesNoGoroutines: a server that answered concurrent
// queries over real connections, then drained, was shut down and had its
// engine closed, leaves no goroutine behind — neither its own, nor the
// connection handlers of net/http, nor the engine's.
func TestDrainShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := testEngine(t)
	s := New(e, Config{MaxInflight: 2, MaxQueue: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	for i, q := range engineQueries(t, e, 8) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(spq.QueryRequest{Query: q})
			resp, err := client.Post("http://"+ln.Addr().String()+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("query %d: status %d", i, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	tr.CloseIdleConnections()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines outlive Drain, Shutdown and Close, %d before the server:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
