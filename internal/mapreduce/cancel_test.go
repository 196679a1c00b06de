package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for context cancellation: the cancellable slot acquire, and
// RunContext aborting a job without leaking admission slots.

// TestAcquireCancelWhileQueued: a waiter whose context is canceled leaves
// the admission queue without consuming a slot, and the pool keeps
// serving afterwards.
func TestAcquireCancelWhileQueued(t *testing.T) {
	p := newSlotPool(1)
	if _, _, err := p.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := p.acquire(ctx)
		errCh <- err
	}()
	// Wait until the waiter is queued, then cancel it.
	for i := 0; p.queueDepth() == 0; i++ {
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued acquire returned %v, want context.Canceled", err)
	}
	if d := p.queueDepth(); d != 0 {
		t.Fatalf("canceled waiter still queued (depth %d)", d)
	}

	// The slot the holder releases must be grantable again: nothing leaked.
	p.release()
	done := make(chan struct{})
	go func() {
		if _, _, err := p.acquire(context.Background()); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool wedged after canceled waiter")
	}
	p.release()
}

// TestAcquireCancelGrantRace hammers the grant/cancel race: waiters whose
// context fires at the same moment release() hands them the slot must not
// leak it. After the storm the pool must still hold exactly its capacity.
func TestAcquireCancelGrantRace(t *testing.T) {
	const slots, rounds, workers = 2, 200, 8
	p := newSlotPool(slots)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (i+seed)%2 == 0 {
					// Cancel concurrently with the grant.
					go cancel()
				}
				_, _, err := p.acquire(ctx)
				if err == nil {
					p.release()
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	// Every slot must be acquirable without blocking.
	for i := 0; i < slots; i++ {
		done := make(chan struct{})
		go func() {
			if _, _, err := p.acquire(context.Background()); err != nil {
				t.Error(err)
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("slot %d leaked during grant/cancel race", i)
		}
	}
	if d := p.queueDepth(); d != 0 {
		t.Fatalf("queue depth %d after storm, want 0", d)
	}
}

// TestRunContextCancelStopsTaskStarts is the counter-verified cancellation
// test: cancel during the first map task and no further tasks may start —
// the FaultInjector hook runs at the start of every attempt, so it IS the
// task-start counter. The cluster must stay usable afterwards (the
// canceled job's admission slots were released).
func TestRunContextCancelStopsTaskStarts(t *testing.T) {
	const tasks = 64
	lines := make([]string, tasks)
	for i := range lines {
		lines[i] = fmt.Sprintf("word%d word%d", i, i%7)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var starts atomic.Int64
	job := wordCountJob(lines, 4)
	job.Source = NewMemorySource(lines, 1) // one map task per line
	job.FaultInjector = func(kind TaskKind, taskID, attempt int) error {
		if starts.Add(1) == 1 {
			cancel()
		}
		return nil
	}

	c := NewCluster(nil, 1, 1)
	_, err := RunContext(ctx, c, job)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), job.Name) {
		t.Errorf("error %q does not name the job", err)
	}

	// Single map slot + cancellation on the first start: at most the tasks
	// already past the lane-loop check may begin. Anything near the full
	// task count means cancellation did not stop dispatch.
	if n := starts.Load(); n > 4 {
		t.Fatalf("%d task starts after cancellation, want <= 4 (of %d tasks)", n, tasks)
	}

	// The pool must have been released: a fresh run on the same cluster
	// completes normally.
	job2 := wordCountJob(lines, 4)
	res, err := Run(c, job2)
	if err != nil {
		t.Fatalf("cluster unusable after canceled job: %v", err)
	}
	if len(res.Output) == 0 {
		t.Fatal("no output from follow-up job")
	}
}

// TestRunContextDeadline: an already-expired deadline aborts before any
// task starts, and the error carries context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	var starts atomic.Int64
	job := wordCountJob([]string{"a b", "c d"}, 2)
	job.FaultInjector = func(kind TaskKind, taskID, attempt int) error {
		starts.Add(1)
		return nil
	}
	_, err := RunContext(ctx, NewCluster(nil, 2, 2), job)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext returned %v, want context.DeadlineExceeded", err)
	}
	if n := starts.Load(); n != 0 {
		t.Fatalf("%d tasks started under an expired deadline", n)
	}
}

// TestRunContextNilAndBackground: nil contexts behave like Background and
// jobs complete normally — the compatibility contract of Run.
func TestRunContextNilAndBackground(t *testing.T) {
	lines := []string{"x y", "y z"}
	res, err := RunContext(nil, NewCluster(nil, 2, 2), wordCountJob(lines, 2)) //nolint:staticcheck // nil ctx tolerance is the contract under test
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 3 {
		t.Fatalf("got %d outputs, want 3", len(res.Output))
	}
}
