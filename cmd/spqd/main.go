// Command spqd is the spatial-preference-query serving daemon: a
// long-running process that loads (or generates) a dataset, seals it, and
// serves queries over HTTP/JSON.
//
// Endpoints:
//
//	POST /query     one spq.QueryRequest -> spq.QueryResponse
//	GET  /metrics   Prometheus-style text: request outcomes, latency
//	                histogram, admission gauges, aggregated spq.* counters
//	GET  /stats     the same as JSON (serve.Stats)
//	GET  /healthz   200 while serving, 503 once shutdown begins
//
// Admission is bounded (-max-inflight running, -queue waiting) and shed
// beyond that with 429; queued requests whose deadline expires are evicted
// rather than served late. Per-tenant token buckets (-quota-rps,
// -quota-burst) shed abusive tenants with 429 without consuming admission.
// SIGINT/SIGTERM starts a graceful drain: in-flight queries finish, new
// ones get 503, then the engine closes.
//
// The HTTP server bounds its connections: a request's header must arrive
// within readHeaderTimeout and its body within readTimeout, and a
// keep-alive connection idle for idleTimeout is closed. There is no write
// timeout: the request deadline (timeout_ms, else -deadline) bounds the
// query, and a write timeout would cut off replies that were served.
//
// The first stdout line is "listening <http-addr>", so a parent process
// spawning the daemon on an ephemeral port can scrape it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spq"
	"spq/serve"
)

// Connection bounds of the HTTP server; see the package comment.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8642", "HTTP listen address")
		dataset    = flag.String("dataset", "uniform", "synthetic dataset family (uniform, cluster)")
		n          = flag.Int("n", 20000, "synthetic dataset size in objects")
		seed       = flag.Int64("seed", 42, "dataset generation seed")
		mapSlots   = flag.Int("map-slots", 0, "map task slots of in-process jobs (default 8); shipped jobs are sized by the worker slots")
		redSlots   = flag.Int("reduce-slots", 0, "reduce task slots of in-process jobs (default 8); shipped jobs are sized by the worker slots")
		qcache     = flag.Int("query-cache", 0, "query cache size in reports (0 default, negative disables)")
		inflight   = flag.Int("max-inflight", 0, "max concurrently executing queries (default 2x GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "max queries waiting for admission (default 4x max-inflight)")
		deadline   = flag.Duration("deadline", 10*time.Second, "default per-query deadline, queueing included")
		quotaRPS   = flag.Float64("quota-rps", 0, "per-tenant sustained queries/sec (0 disables quotas)")
		quotaBurst = flag.Float64("quota-burst", 0, "per-tenant burst size (default max(quota-rps, 1))")
		drainWait  = flag.Duration("drain-wait", 30*time.Second, "max time to wait for in-flight queries on shutdown")
	)
	flag.Parse()
	log.SetPrefix("spqd: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	eng := spq.NewEngine(spq.Config{
		Seed:     *seed,
		MapSlots: *mapSlots, ReduceSlots: *redSlots,
		QueryCache: *qcache,
	})
	log.Printf("loading %s/%d (seed %d)", *dataset, *n, *seed)
	if err := eng.LoadSynthetic(*dataset, *n); err != nil {
		log.Fatalf("load: %v", err)
	}
	if err := eng.Seal(); err != nil {
		log.Fatalf("seal: %v", err)
	}

	srv := serve.New(eng, serve.Config{
		MaxInflight:    *inflight,
		MaxQueue:       *queue,
		DefaultTimeout: *deadline,
		Quota:          serve.QuotaConfig{RatePerSec: *quotaRPS, Burst: *quotaBurst},
	})

	hl, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	// The parent-scrapeable banner; keep it the first stdout line.
	fmt.Printf("listening %s\n", hl.Addr())
	os.Stdout.Sync() //nolint:errcheck // best effort

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	go hs.Serve(hl) //nolint:errcheck // returns ErrServerClosed on Shutdown

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("caught %v, shutting down (max %v)", s, *drainWait)

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v (closing anyway)", err)
	}
	hs.Shutdown(ctx) //nolint:errcheck // Drain already waited for queries
	if err := eng.Close(); err != nil {
		log.Printf("engine close: %v", err)
	}
	log.Printf("bye")
}
