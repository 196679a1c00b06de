package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"spq/internal/mapreduce"
)

// Worker plumbing for dist_2w. The benchmark binary re-execs itself with
// the hidden -run-worker flag; each child serves mapreduce tasks on an
// ephemeral loopback port and prints the address for the parent to scrape.

// runWorker is the child side. It exits when its stdin reaches EOF: the
// parent holds the write end of that pipe, so the kernel closes it however
// the parent dies, and no worker outlives a failed or interrupted run.
func runWorker() error {
	w, err := mapreduce.StartWorker("127.0.0.1:0", 1)
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", w.Addr())
	io.Copy(io.Discard, os.Stdin) //nolint:errcheck // any end of stdin means the parent is gone
	w.Stop()
	return nil
}

// workers is a set of spawned worker processes.
type workers struct {
	cmds  []*exec.Cmd
	stdin []io.Closer
	addrs []string
}

// spawnWorkers starts n workers of one slot each and scrapes their
// addresses. On error every worker already started is stopped.
func spawnWorkers(n int) (*workers, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ws := &workers{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-run-worker")
		cmd.Stderr = os.Stderr
		in, err := cmd.StdinPipe()
		if err != nil {
			ws.stop()
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			ws.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			ws.stop()
			return nil, fmt.Errorf("start worker %d: %w", i+1, err)
		}
		ws.cmds = append(ws.cmds, cmd)
		ws.stdin = append(ws.stdin, in)
		line, err := bufio.NewReader(out).ReadString('\n')
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening ")
		if err != nil || !ok || addr == "" {
			ws.stop()
			return nil, fmt.Errorf("worker %d printed %q, want \"listening <addr>\" (%v)", i+1, line, err)
		}
		ws.addrs = append(ws.addrs, addr)
	}
	return ws, nil
}

func (ws *workers) pids() []int {
	out := make([]int, len(ws.cmds))
	for i, c := range ws.cmds {
		out[i] = c.Process.Pid
	}
	return out
}

// stop kills every worker and reaps it, so none is left as a zombie and
// the caller knows each has ended when stop returns.
func (ws *workers) stop() {
	for _, c := range ws.stdin {
		c.Close()
	}
	for _, c := range ws.cmds {
		c.Process.Kill() //nolint:errcheck // already exited is fine
		c.Wait()         //nolint:errcheck // the kill makes Wait report an error by design
	}
	ws.cmds, ws.stdin, ws.addrs = nil, nil, nil
}
