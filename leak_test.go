package spq

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// goroutinesSettle waits up to two seconds for the live goroutine count to
// fall back to before, and returns the count it saw last.
func goroutinesSettle(before int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestEngineCloseLeavesNoGoroutines: an in-process engine that sealed,
// answered queries, canceled and delta-overlaid ones among them, took
// appends and compacted starts nothing that outlives Close.
func TestEngineCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	dataObjs, feats := tiedCorpus(59, 600)
	for _, st := range oracleStorages {
		e := sealedEngine(t, Config{Storage: st.storage, Nodes: 4, BlockSize: 4 << 10, Seed: 9, MapSlots: 2, ReduceSlots: 2}, dataObjs[:200], feats)
		query := func() {
			for _, c := range invarianceCases() {
				metamorphicRun(t, e, c)
			}
		}
		query()
		if err := e.AddData(dataObjs[200:]...); err != nil {
			t.Fatal(err)
		}
		query()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.QueryContext(ctx, invarianceCases()[0].q); err == nil {
			t.Errorf("%s: a canceled query succeeded", st.name)
		}
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		query()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if n := goroutinesSettle(before); n > before {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines outlive Close, %d before the engine:\n%s", st.name, n, before, buf[:runtime.Stack(buf, true)])
		}
	}
}
