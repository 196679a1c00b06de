// Package serve wraps an spq engine in a network serving layer with
// tail-latency discipline: an HTTP/JSON front end (the one wire), bounded
// admission with deadline-based queue eviction, per-tenant token-bucket
// quotas with 429 load shedding, graceful drain across storage
// generations, and a /metrics endpoint exposing the engine's spq.*
// counters. cmd/spqd is the daemon binary.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spq"
)

// Engine is the query surface the server needs. *spq.Engine implements it;
// tests substitute wrappers (e.g. a blocking querier) to drive the
// admission machinery deterministically.
type Engine interface {
	QueryReportContext(ctx context.Context, q spq.Query, opts ...spq.QueryOption) (*spq.Report, error)
	Generation() uint64
	CacheStats() spq.CacheStats
}

// Config parameterizes a Server.
type Config struct {
	// MaxInflight bounds concurrently executing queries (default
	// 2×GOMAXPROCS). The engine's slot pools arbitrate map/reduce tasks
	// between them; this bound keeps the pools' queues — and therefore
	// tail latency — short.
	MaxInflight int
	// MaxQueue bounds requests waiting for admission (default
	// 4×MaxInflight). Requests beyond it are shed with 429 immediately:
	// under overload the queue must stay bounded or p99 collapses.
	MaxQueue int
	// DefaultTimeout bounds each request's total time — queueing included
	// — when the request carries no timeout_ms (default 10s; negative
	// disables). A queued request whose deadline expires is evicted and
	// shed rather than admitted to time out inside the engine.
	DefaultTimeout time.Duration
	// Quota configures per-tenant token buckets; the zero value disables
	// quota enforcement.
	Quota QuotaConfig
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	return c
}

// maxRequestBytes bounds one POST /query body; a larger body indicates a
// broken or hostile client. It also bounds the keyword count.
const maxRequestBytes = 4 << 20

// Server is the serving layer over one engine.
type Server struct {
	eng     Engine
	cfg     Config
	gate    *gate
	quotas  *quotaTable
	metrics *metrics
	mux     *http.ServeMux

	stopping atomic.Bool

	// lifeMu guards the in-flight request count against Drain: beginReq's
	// admit-or-refuse decision and Drain's zero-check are atomic with
	// respect to each other, and idle closes exactly once, when Drain
	// has started and the count reaches zero.
	lifeMu sync.Mutex
	nreq   int
	idle   chan struct{}
}

// New builds a server over eng.
func New(eng Engine, cfg Config) *Server {
	s := &Server{
		eng:     eng,
		cfg:     cfg.withDefaults(),
		metrics: newMetrics(),
		idle:    make(chan struct{}),
	}
	s.gate = newGate(s.cfg.MaxInflight, s.cfg.MaxQueue)
	s.quotas = newQuotaTable(s.cfg.Quota)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the HTTP front end: POST /query, GET /metrics, /stats,
// /healthz.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the serving metrics.
func (s *Server) Stats() Stats {
	st := s.metrics.snapshot(true)
	st.Inflight = s.gate.inflight()
	st.Queued = s.gate.queueDepth()
	st.Generation = s.eng.Generation()
	return st
}

// do runs one query request through quota, admission and the engine,
// returning the wire response and its HTTP status. tenantFallback is used
// when the request body names no tenant (the X-SPQ-Tenant header).
func (s *Server) do(ctx context.Context, req *spq.QueryRequest, tenantFallback string, wantCounters bool) (*spq.QueryResponse, int) {
	start := time.Now()
	if err := s.beginReq(); err != nil {
		return s.fail(start, err)
	}
	defer s.endReq()
	tenant := req.Tenant
	if tenant == "" {
		tenant = tenantFallback
	}
	if !s.quotas.allow(tenant) {
		return s.fail(start, fmt.Errorf("%w: quota exhausted for tenant %q", spq.ErrOverloaded, tenant))
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opts, err := req.Options()
	if err != nil {
		return s.fail(start, err)
	}
	if err := s.gate.enter(ctx); err != nil {
		return s.fail(start, err)
	}
	defer s.gate.leave()
	rep, err := s.eng.QueryReportContext(ctx, req.Query, opts...)
	if err != nil {
		return s.fail(start, err)
	}
	eff := rep.Options()
	resp := &spq.QueryResponse{
		Results:     rep.Results,
		Generation:  s.eng.Generation(),
		TotalMillis: rep.TotalMillis,
		Options:     &eff,
	}
	if resp.Results == nil {
		resp.Results = []spq.Result{}
	}
	if rep.Delta != nil {
		resp.Generation = rep.Delta.Generation
	}
	if wantCounters {
		resp.Counters = rep.Counters
	}
	s.metrics.observe(outcomeOK, time.Since(start), rep.Counters)
	return resp, http.StatusOK
}

// beginReq registers one in-flight request, refusing it once Drain has
// started. endReq must be called iff beginReq returned nil.
func (s *Server) beginReq() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.stopping.Load() {
		return fmt.Errorf("%w: server shutting down", spq.ErrClosed)
	}
	s.nreq++
	return nil
}

func (s *Server) endReq() {
	s.lifeMu.Lock()
	s.nreq--
	if s.nreq == 0 && s.stopping.Load() {
		s.closeIdleLocked()
	}
	s.lifeMu.Unlock()
}

// closeIdleLocked closes idle exactly once; callers hold lifeMu.
func (s *Server) closeIdleLocked() {
	select {
	case <-s.idle:
	default:
		close(s.idle)
	}
}

// fail records a failed request and builds its error response.
func (s *Server) fail(start time.Time, err error) (*spq.QueryResponse, int) {
	status := httpStatus(err)
	s.metrics.observe(outcomeFor(err), time.Since(start), nil)
	return &spq.QueryResponse{Error: err.Error(), Code: spq.ErrorCode(err)}, status
}

// statusClientClosed is nginx's convention for "client closed request";
// Go has no named constant for it. A client that canceled rarely sees the
// status, but logs and metrics do.
const statusClientClosed = 499

// httpStatus maps the error taxonomy of the spq package onto HTTP status
// codes, 1:1.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, spq.ErrInvalidQuery):
		return http.StatusBadRequest
	case errors.Is(err, spq.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, spq.ErrCanceled):
		if errors.Is(err, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout
		}
		return statusClientClosed
	case errors.Is(err, spq.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// outcomeFor buckets an error for the request-outcome metrics.
func outcomeFor(err error) string {
	switch {
	case errors.Is(err, spq.ErrInvalidQuery):
		return outcomeInvalid
	case errors.Is(err, spq.ErrOverloaded):
		return outcomeShed
	case errors.Is(err, spq.ErrCanceled):
		return outcomeCanceled
	default:
		return outcomeError
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req spq.QueryRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes)).Decode(&req); err != nil {
		resp := &spq.QueryResponse{
			Error: fmt.Sprintf("spq: invalid query: malformed request body: %v", err),
			Code:  spq.CodeInvalidQuery,
		}
		s.metrics.observe(outcomeInvalid, 0, nil)
		writeJSON(w, http.StatusBadRequest, resp)
		return
	}
	wantCounters := r.URL.Query().Get("counters") == "1"
	resp, status := s.do(r.Context(), &req, r.Header.Get("X-SPQ-Tenant"), wantCounters)
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.metrics.render(&b, s.gate.inflight(), s.gate.queueDepth(), s.eng.Generation())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String()) //nolint:errcheck // best-effort response
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.stopping.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck // best-effort response
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best-effort response
}

// Drain gracefully shuts the serving layer down: new requests are refused
// with 503 (and /healthz flips, so load balancers stop routing here) and
// in-flight requests — including any running across an Engine.Compact
// generation change — run to completion. It returns nil once everything
// in flight has finished, or ctx.Err() if the drain deadline expires
// first (in-flight queries then keep running; the caller decides whether
// to Close the engine under them). Drain closes neither the engine nor
// the listener: the caller shuts its http.Server down afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.lifeMu.Lock()
	s.stopping.Store(true)
	if s.nreq == 0 {
		s.closeIdleLocked()
	}
	s.lifeMu.Unlock()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
