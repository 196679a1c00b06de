package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"spq"
)

// runMainEnv makes the test binary run main() instead of the tests, so a
// test can start a real spqd process by re-executing itself.
const runMainEnv = "SPQ_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// query sends one request frame on a fresh binary-protocol connection and
// returns the response's code and its raw results JSON.
func query(addr string, req spq.QueryRequest) (code string, results []byte, err error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", nil, err
	}
	defer conn.Close()
	payload, err := json.Marshal(&req)
	if err != nil {
		return "", nil, err
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	if _, err := conn.Write(append(frame, payload...)); err != nil {
		return "", nil, err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return "", nil, err
	}
	reply := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, reply); err != nil {
		return "", nil, err
	}
	var resp struct {
		Results json.RawMessage `json:"results"`
		Code    string          `json:"code"`
	}
	err = json.Unmarshal(reply, &resp)
	return resp.Code, resp.Results, err
}

// TestDaemonProcess runs spqd as a real process at a capacity of one
// running and two queued queries, with the query cache off. Its banner
// must name live addresses, its binary-protocol replies must be
// byte-identical to a seed-identical in-process engine, an open-loop
// burst must be partly shed as overloaded with every served reply still
// correct and none failing, and SIGTERM must drain it to exit status 0.
// (The connection cap is off here; TestServerBinaryConnBackpressure in
// package serve covers it.)
func TestDaemonProcess(t *testing.T) {
	const n, burst = 8000, 64
	// Both ports ephemeral: the default binary port, HTTP port + 1, may be
	// taken.
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-bin-addr", "127.0.0.1:0", "-n", fmt.Sprint(n),
		"-max-inflight", "1", "-queue", "2", "-query-cache", "-1", "-max-conns", "-1")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
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
		if t.Failed() {
			t.Logf("spqd stderr:\n%s", stderr.String())
		}
	})

	// The reference loads while the daemon does: spqd runs the default
	// engine over the uniform dataset, seed 42.
	ref := spq.NewEngine(spq.Config{Seed: 42})
	if err := ref.LoadSynthetic("uniform", n); err != nil {
		t.Fatal(err)
	}
	kws := ref.FrequentKeywords(12)
	// A small radius keeps scores apart, so a daemon over other data
	// answers differently; at larger radii the top-k is a tie broken by
	// the lowest ids, which most datasets share.
	queries := make([]spq.Query, 16)
	want := make([][]byte, len(queries))
	for i := range queries {
		queries[i] = spq.Query{K: 10, Radius: 0.005, Keywords: []string{kws[i%len(kws)], kws[(i*3+1)%len(kws)]}}
		res, err := ref.Query(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if res == nil {
			res = []spq.Result{}
		}
		if want[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}

	line, err := bufio.NewReader(stdout).ReadString('\n')
	fields := strings.Fields(line)
	if err != nil || len(fields) != 3 || fields[0] != "listening" {
		t.Fatalf("banner %q: %v", line, err)
	}
	httpAddr, binAddr := fields[1], fields[2]
	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %s", resp.Status)
	}

	// One at a time, every query is admitted promptly and must match the
	// reference.
	for i, q := range queries {
		start := time.Now()
		code, got, err := query(binAddr, spq.QueryRequest{Query: q})
		if err != nil || code != "" {
			t.Fatalf("query %d: code %q, %v", i, code, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("query %d: daemon and in-process engine differ\n got %s\nwant %s", i, got, want[i])
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("query %d took %v within capacity, want under 1s", i, d)
		}
	}

	// Open loop: every arrival is sent without waiting for earlier
	// replies, far past what one running and two queued queries absorb.
	// Each carries a 2s deadline, so a served reply was served within it;
	// an expired one would come back canceled and count as failed.
	var (
		mu                           sync.Mutex
		ok, shed, failed, mismatched int
		wg                           sync.WaitGroup
	)
	for i := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qi := i % len(queries)
			code, got, err := query(binAddr, spq.QueryRequest{Query: queries[qi], TimeoutMillis: 2000})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				failed++
				t.Logf("arrival %d: %v", i, err)
			case code == spq.CodeOverloaded:
				shed++
			case code != "":
				failed++
				t.Logf("arrival %d: code %q", i, code)
			case !bytes.Equal(got, want[qi]):
				mismatched++
			default:
				ok++
			}
		}()
	}
	wg.Wait()
	t.Logf("burst of %d: %d ok, %d shed", burst, ok, shed)
	if failed > 0 || mismatched > 0 || ok == 0 || shed*20 < burst {
		t.Errorf("burst of %d: %d ok, %d shed, %d failed, %d mismatched; want some served, >= 5%% shed, none failed or mismatched",
			burst, ok, shed, failed, mismatched)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("spqd after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // reaped just below
		<-exited
		t.Error("spqd did not exit within 10s of SIGTERM")
	}
}
