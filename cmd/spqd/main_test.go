package main

import (
	"bufio"
	"bytes"
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

// client bounds every test request, so a wedged daemon fails the test
// instead of hanging it.
var client = &http.Client{Timeout: 10 * time.Second}

// query POSTs one request to the daemon and returns the response's code
// and its raw results JSON. A status that disagrees with the code (a 200
// carrying one, or a failure without one) is an error.
func query(addr string, req spq.QueryRequest) (code string, results []byte, err error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return "", nil, err
	}
	resp, err := client.Post("http://"+addr+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Results json.RawMessage `json:"results"`
		Code    string          `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", nil, err
	}
	if (resp.StatusCode == http.StatusOK) != (out.Code == "") {
		return "", nil, fmt.Errorf("status %s with code %q", resp.Status, out.Code)
	}
	return out.Code, out.Results, nil
}

// TestDaemonProcess runs spqd as a real process at a capacity of one
// running and two queued queries, with the query cache off. Its banner
// must name a live address, its replies must be byte-identical to a
// seed-identical in-process engine, an open-loop burst must be partly
// shed as overloaded with every served reply still correct and none
// failing, a client that sends half a request header must be
// disconnected, and SIGTERM must drain it to exit status 0.
func TestDaemonProcess(t *testing.T) {
	const n, burst = 8000, 64
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-n", fmt.Sprint(n),
		"-max-inflight", "1", "-queue", "2", "-query-cache", "-1")
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
	if err != nil || len(fields) != 2 || fields[0] != "listening" {
		t.Fatalf("banner %q: %v", line, err)
	}
	addr := fields[1]

	// A slow client: half a request header, then silence. The daemon must
	// close the connection at readHeaderTimeout; the phases below run
	// meanwhile, and the check comes after them.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slowSince := time.Now()
	if _, err := io.WriteString(slow, "POST /query HTTP/1.1\r\nHost: spqd\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := client.Get("http://" + addr + "/healthz")
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
		code, got, err := query(addr, spq.QueryRequest{Query: q})
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
			code, got, err := query(addr, spq.QueryRequest{Query: queries[qi], TimeoutMillis: 2000})
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

	// The daemon has closed the connection by now, or does so within the
	// read-header timeout, so the read ends in EOF, not at its deadline.
	slow.SetReadDeadline(slowSince.Add(readHeaderTimeout + 5*time.Second)) //nolint:errcheck // a fresh conn
	if _, err := io.Copy(io.Discard, slow); err != nil {
		t.Errorf("half-header connection: %v after %v, want closed by the daemon at %v",
			err, time.Since(slowSince).Round(time.Millisecond), readHeaderTimeout)
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
