package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"spq"
	"spq/internal/data"
	"spq/internal/text"
	"spq/serve"
)

// serveLimit is the latency limit of serve_mixed: a reply slower than this
// from its due time counts as a failed operation, like a shed or wrong one.
const serveLimit = 250 * time.Millisecond

// serveLoad is serve_mixed: query_hot's engine with a query cache, behind
// an in-process serve.Server reached over loopback HTTP/JSON on two
// keep-alive connections. cmd/spqd cannot load generated inputs, so the
// benchmark hosts the serve package itself.
//
// One pass sends the fixed arrival list open loop at serveRate arrivals/s,
// timed from each arrival's due time (the latency metrics), then
// serveBurstRounds times closed loop back to back (qps: what the serving
// stack sustains; the open loop's own rate is fixed by its schedule and
// says nothing).
type serveLoad struct {
	system
	in       *inputs
	distinct []keyedQuery // the hot set then the executed queries
	arrivals []arrival

	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when the http.Server's Serve goroutine has returned
	client *http.Client
	url    string
	// tr is the tracer of the pass in progress; the server-side wrappers
	// read it.
	tr atomic.Pointer[tracer]
	// queuedMax is the deepest admission queue the client side observed.
	queuedMax atomic.Int64
}

type arrival struct {
	key  string // the distinct query it sends
	body []byte // the JSON spq.QueryRequest
}

func newServeMixed(b *bench) workload {
	w := &serveLoad{system: system{b: b, opts: []spq.QueryOption{spq.WithAutoPlan()}}}
	w.in = generate("flickr", b.sized(queryHotObjects), b.cfg.seed, 0)
	n := b.scaled(serveArrivals)
	nHot := n * serveHotPercent / 100
	hot := w.in.hotQueries(b.rand, serveHotSet)
	cold := w.in.hotQueries(b.rand, n-nHot)
	noCache := false
	body := func(q spq.Query, cache *bool) []byte {
		raw, err := json.Marshal(spq.QueryRequest{Query: q, AutoPlan: true, Cache: cache})
		if err != nil {
			panic(err) // a struct of strings and numbers always marshals
		}
		return raw
	}
	for i, q := range hot {
		w.distinct = append(w.distinct, keyedQuery{fmt.Sprintf("h%d", i), q})
	}
	for i, q := range cold {
		w.distinct = append(w.distinct, keyedQuery{fmt.Sprintf("c%d", i), q})
	}
	// Exactly serveHotPercent of the arrivals hit the hot set, in a seeded
	// order; each executed query is sent once per list, uncached.
	nextCold := 0
	for _, slot := range b.rand.Perm(n) {
		if slot < nHot {
			h := b.rand.Intn(len(hot))
			w.arrivals = append(w.arrivals, arrival{w.distinct[h].key, body(hot[h], nil)})
			continue
		}
		w.arrivals = append(w.arrivals, arrival{w.distinct[len(hot)+nextCold].key, body(cold[nextCold], &noCache)})
		nextCold++
	}
	return w
}

type spanKey struct{}

// engineTap is the benchmark-owned serve.Engine decorator: it records the
// spq.query span and the report of every query the server executes.
type engineTap struct {
	*spq.Engine
	w *serveLoad
}

func (t engineTap) QueryReportContext(ctx context.Context, q spq.Query, opts ...spq.QueryOption) (*spq.Report, error) {
	tr := t.w.tr.Load()
	if tr == nil {
		return t.Engine.QueryReportContext(ctx, q, opts...)
	}
	parent, _ := ctx.Value(spanKey{}).(handlerSpan)
	return tr.query(parent.req, parent.id, func() (*spq.Report, error) {
		return t.Engine.QueryReportContext(ctx, q, opts...)
	})
}

type handlerSpan struct {
	id  int
	req string
}

// traced wraps the server's handler with the serve.handler span, parented
// to the client's round-trip span through two request headers.
func (w *serveLoad) traced(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.tr.Load()
		if tr == nil {
			next.ServeHTTP(rw, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		req := r.Header.Get("X-Bench-Req")
		id := tr.start("serve.handler", req, parent)
		next.ServeHTTP(rw, r.WithContext(context.WithValue(r.Context(), spanKey{}, handlerSpan{id, req})))
		tr.end(id)
	})
}

func (w *serveLoad) setup() error {
	cfg := w.b.baseConfig()
	cfg.QueryCache = spq.DefaultQueryCacheSize
	eng, err := loadEngine(cfg, w.in)
	if err != nil {
		return err
	}
	w.eng = eng
	w.srv = serve.New(engineTap{eng, w}, serve.Config{MaxInflight: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.traced(w.srv.Handler())}
	w.served = make(chan struct{})
	go func() {
		w.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed at teardown
		close(w.served)
	}()
	w.url = "http://" + ln.Addr().String() + "/query"
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: w.b.clients, MaxIdleConnsPerHost: w.b.clients}}
	return nil
}

func (w *serveLoad) teardown() {
	if w.hs != nil {
		w.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		w.srv.Drain(ctx)   //nolint:errcheck // teardown of an idle server
		w.hs.Shutdown(ctx) //nolint:errcheck // closes the listener and the idle connections
		cancel()
		<-w.served
		w.hs = nil
	}
	w.closeEngine()
}

// send posts arrival i and verifies the reply. due is when the arrival was
// scheduled; latency runs from there.
func (w *serveLoad) send(tr *tracer, i int, due time.Time) opSample {
	a := w.arrivals[i]
	req := fmt.Sprintf("%s/%d.%s", w.b.cfg.workload, i, a.key)
	id := tr.start("client.roundtrip", req, 0)
	fp, err := w.post(a.body, id, req)
	tr.end(id)
	d := time.Since(due)
	if err == nil && d > serveLimit {
		err = fmt.Errorf("reply after %v, limit %v", d, serveLimit)
	}
	if tr != nil {
		if q := int64(w.srv.Stats().Queued); q > w.queuedMax.Load() {
			w.queuedMax.Store(q) // a diagnostic; a lost race only under-reports
		}
	}
	return opSample{kind: opQuery, ms: ms(d), failed: !w.b.check.verify(a.key, fp, err)}
}

func (w *serveLoad) post(body []byte, span int, req string) (string, error) {
	hr, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hr.Header.Set("Content-Type", "application/json")
	if span != 0 {
		hr.Header.Set("X-Bench-Span", strconv.Itoa(span))
		hr.Header.Set("X-Bench-Req", req)
	}
	resp, err := w.client.Do(hr)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	var qr spq.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return "", fmt.Errorf("status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d %s: %s", resp.StatusCode, qr.Code, qr.Error)
	}
	return resultsFingerprint(qr.Results), nil
}

// closed sends n arrivals back to back on the two connections, going round
// the list when n exceeds it.
func (w *serveLoad) closed(tr *tracer, n int) ([]opSample, time.Duration) {
	out := make([]opSample, n)
	wall := closedLoop(n, w.b.clients, func(i int) { out[i] = w.send(tr, i%len(w.arrivals), time.Now()) })
	return out, wall
}

// open sends every arrival at its due time: arrival i is due i/serveRate
// seconds after the start whatever happened to the ones before it.
func (w *serveLoad) open(tr *tracer) ([]opSample, []float64) {
	n := len(w.arrivals)
	out := make([]opSample, n)
	late := make([]float64, n)
	due := make([]time.Time, n)
	jobs := make(chan int, n) // one send per arrival: the generator never blocks on a busy connection
	start := time.Now()
	go func() {
		for i := 0; i < n; i++ {
			due[i] = start.Add(time.Duration(i) * time.Second / serveRate)
			time.Sleep(time.Until(due[i]))
			late[i] = ms(time.Since(due[i]))
			jobs <- i
		}
		close(jobs)
	}()
	done := make(chan struct{}, w.b.clients) // one send per connection
	for c := 0; c < w.b.clients; c++ {
		go func() {
			for i := range jobs {
				out[i] = w.send(tr, i, due[i])
			}
			done <- struct{}{}
		}()
	}
	for c := 0; c < w.b.clients; c++ {
		<-done
	}
	return out, late
}

func (w *serveLoad) warm(n int) { w.closed(nil, min(n, len(w.arrivals))) }

func (w *serveLoad) pass(tr *tracer) *passResult {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	res := &passResult{}
	res.samples, res.lateMs = w.open(tr)
	res.burst, res.wall = w.closed(tr, serveBurstRounds*len(w.arrivals))
	return res
}

func (w *serveLoad) dropInputs() { w.in = nil }
func (w *serveLoad) numOps() int { return (1 + serveBurstRounds) * len(w.arrivals) }

// layerMetrics reads the serving layer: self time is a span minus the part
// its child span covers.
func (w *serveLoad) layerMetrics(tr *tracer, v map[string]float64) {
	self := tr.selfTimes()
	v["serve.handler_ms"] = median(self["serve.handler"])
	v["serve.http_overhead_ms"] = median(self["client.roundtrip"])
	st := w.srv.Stats()
	if total := st.Served + st.Shed + st.Canceled + st.Errors + st.Invalid; total > 0 {
		v["serve.shed_ratio"] = float64(st.Shed) / float64(total)
	}
	v["serve.queued_max"] = float64(w.queuedMax.Load())
	for _, o := range tr.queries {
		if o.rep.Counters[spq.CounterCacheHit] == 0 {
			v["serve.wire_encode_us"], v["serve.wire_decode_us"] = shadowWire(w.arrivals[0].body, o.rep)
			break
		}
	}
}

func (w *serveLoad) oracle() ([]data.Object, *text.Dict) { return w.in.ds.Objects(), w.in.ds.Dict }

// verifyQueries is every distinct query, in a seeded order so that the
// oracle's share covers hot and executed ones: each HTTP reply was keyed by
// its query, so checking the in-process answer under the same key checks
// every reply against the in-process engine.
func (w *serveLoad) verifyQueries() []keyedQuery {
	out := make([]keyedQuery, 0, len(w.distinct))
	for _, i := range w.b.rand.Perm(len(w.distinct)) {
		out = append(out, w.distinct[i])
	}
	return out
}
