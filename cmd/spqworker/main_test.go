package main

import (
	"bufio"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"spq"
)

// runMainEnv makes the test binary run main() instead of the tests, so a
// test can start real spqworker processes by re-executing itself.
const runMainEnv = "SPQ_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startWorker starts one spqworker process and returns it with the
// address scraped from its "listening <addr>" banner. The process is
// killed and reaped when the test ends.
func startWorker(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill() //nolint:errcheck // reaped just below
			cmd.Wait()         //nolint:errcheck // killed on purpose
		}
	})
	line, err := bufio.NewReader(out).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !ok || addr == "" {
		t.Fatalf("worker banner %q: %v", line, err)
	}
	return cmd, addr
}

func sealedEngine(t *testing.T, cfg spq.Config, size int) *spq.Engine {
	t.Helper()
	e := spq.NewEngine(cfg)
	if err := e.LoadSynthetic("clustered", size); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestWorkerProcesses runs the query workload on real spqworker
// processes, in two phases of concurrent clients: on two workers attached
// through Config.Workers, and after one of them was SIGKILLed between
// phases. Every query must answer exactly like the in-process engine, and
// the kill must be metered as exactly one lost worker, whichever of a
// dispatch, the heartbeat or the end-of-job cleanup notices it first.
func TestWorkerProcesses(t *testing.T) {
	t.Run("spq3", func(t *testing.T) {
		const size, phase, clients = 4000, 8, 4
		cfg := spq.Config{
			Nodes: 4, BlockSize: 16 << 10,
			MapSlots: 4, ReduceSlots: 2,
			QueryCache:  -1,
			MaxAttempts: 5,
		}
		ref := sealedEngine(t, cfg, size)
		kws := ref.FrequentKeywords(16)
		queries := make([]spq.Query, 2*phase)
		want := make([][]spq.Result, len(queries))
		for i := range queries {
			queries[i] = spq.Query{K: 10, Radius: 0.02, Keywords: []string{kws[i%len(kws)], kws[(i*7+3)%len(kws)]}}
			var err error
			if want[i], err = ref.Query(queries[i]); err != nil {
				t.Fatal(err)
			}
		}

		victim, addr1 := startWorker(t, "-slots", "2")
		_, addr2 := startWorker(t, "-slots", "2")
		cfg.Workers = []string{addr1, addr2}
		eng := sealedEngine(t, cfg, size)

		// run answers queries[lo:hi] on the clients, checks every result,
		// and sums the reports' counters.
		run := func(lo, hi int) map[string]int64 {
			var (
				mu   sync.Mutex
				sum  = map[string]int64{}
				next atomic.Int64
				wg   sync.WaitGroup
			)
			for range clients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := lo + int(next.Add(1)-1); i < hi; i = lo + int(next.Add(1)-1) {
						rep, err := eng.QueryReport(queries[i])
						if err != nil {
							t.Errorf("query %d: %v", i, err)
							return
						}
						if !reflect.DeepEqual(rep.Results, want[i]) {
							t.Errorf("query %d on worker processes:\n got %v\nwant %v", i, rep.Results, want[i])
						}
						mu.Lock()
						for k, v := range rep.Counters {
							sum[k] += v
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			return sum
		}

		run(0, phase)

		victim.Process.Kill() //nolint:errcheck // reaped just below
		victim.Wait()         //nolint:errcheck // killed on purpose
		if c := run(phase, 2*phase); c[spq.CounterExecWorkersLost] != 1 {
			t.Errorf("SIGKILLed worker metered as %d lost workers, want 1", c[spq.CounterExecWorkersLost])
		}
	})
}
