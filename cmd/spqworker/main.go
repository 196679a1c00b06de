// Command spqworker runs one SPQ MapReduce worker process. It listens for
// task RPCs, waits for a master to attach (spq.Config.Workers), and
// executes the map and reduce tasks of SPQ query jobs against the master's
// storage, fetched over the same connection. Stop it with SIGINT/SIGTERM;
// the engine then counts the worker as lost for the rest of its life and
// re-executes the worker's in-flight tasks on the others.
//
// Usage:
//
//	spqworker -addr 127.0.0.1:0 -slots 4
//
// The first stdout line is "listening <host:port>", so a parent process
// spawning workers on ephemeral ports can scrape the address to pass to
// the engine.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"spq/internal/mapreduce"

	// Link the SPQ query job kind so shipped jobs are executable here.
	_ "spq/internal/core"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:0", "host:port to listen on (port 0 picks an ephemeral port)")
		slots = flag.Int("slots", 0, "concurrent task slots offered to the master; a shipped job runs one map and one reduce task per slot of its workers (default NumCPU)")
	)
	flag.Parse()

	n := *slots
	if n <= 0 {
		n = runtime.NumCPU()
	}
	w, err := mapreduce.StartWorker(*addr, n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spqworker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("listening %s\n", w.Addr())
	os.Stdout.Sync()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	w.Stop()
}
