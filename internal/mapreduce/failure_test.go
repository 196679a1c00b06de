package mapreduce

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spq/internal/dfs"
)

// Two map tasks failing concurrently must both appear in one aggregated
// JobError, not first-error-wins.
func TestJobErrorAggregatesConcurrentTaskFailures(t *testing.T) {
	job := wordCountJob([]string{"a b", "c d"}, 2)
	job.Source = NewMemorySource([]string{"a b", "c d"}, 2) // 2 splits -> 2 map tasks
	job.MaxAttempts = 1
	job.RetryBackoff = -1
	// Barrier: both map attempts must have started before either fails, so
	// neither slot can observe the other's failure and skip its task.
	var barrier sync.WaitGroup
	barrier.Add(2)
	job.FaultInjector = func(kind TaskKind, taskID, attempt int) error {
		if kind != MapTask {
			return nil
		}
		barrier.Done()
		barrier.Wait()
		return fmt.Errorf("injected failure for map %d", taskID)
	}
	_, err := Run(NewCluster(nil, 2, 1), job)
	if err == nil {
		t.Fatal("job succeeded despite injected failures")
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %T (%v), want *JobError", err, err)
	}
	if len(je.Tasks) != 2 {
		t.Fatalf("JobError aggregates %d task(s), want 2: %v", len(je.Tasks), err)
	}
	if je.Tasks[0].Task != 0 || je.Tasks[1].Task != 1 {
		t.Errorf("task failures not sorted by id: %v", err)
	}
	if !errors.Is(err, ErrTooManyFailures) {
		t.Errorf("aggregated error does not unwrap to ErrTooManyFailures: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "map task 0") || !strings.Contains(msg, "map task 1") {
		t.Errorf("aggregated message names only some tasks: %q", msg)
	}
}

// A Permanent error must fail the task on its first attempt without
// consuming the retry budget and without claiming exhaustion.
func TestPermanentErrorFailsFast(t *testing.T) {
	job := wordCountJob([]string{"a b c"}, 1)
	job.MaxAttempts = 5
	job.RetryBackoff = -1
	var attempts atomic.Int64
	job.FaultInjector = func(kind TaskKind, taskID, attempt int) error {
		if kind == MapTask {
			attempts.Add(1)
			return Permanent(errors.New("deterministic bug"))
		}
		return nil
	}
	_, err := Run(NewCluster(nil, 1, 1), job)
	if err == nil {
		t.Fatal("job succeeded despite permanent failure")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("task ran %d attempts, want 1 (permanent errors must not retry)", got)
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T, want to unwrap to *TaskError", err)
	}
	if te.Exhausted {
		t.Error("permanent failure reported as retry exhaustion")
	}
	if errors.Is(err, ErrTooManyFailures) {
		t.Error("permanent failure unwraps to ErrTooManyFailures")
	}
	if !strings.Contains(err.Error(), "not retryable") {
		t.Errorf("message does not mark the failure permanent: %q", err)
	}
}

// A malformed input record is a deterministic job bug: a split that says
// so (Permanent) must fail its task fast instead of re-reading the same bad
// record MaxAttempts times.
func TestParseErrorIsPermanent(t *testing.T) {
	fsys := dfs.New(dfs.Config{NumNodes: 2, BlockSize: 64, Seed: 1})
	writeInts(t, fsys, "in", "1", "2", "bad-int")
	var attempts atomic.Int64
	job := &Job[int, string, int, string]{
		Name:        "parse",
		Source:      rangeInput{fs: fsys, file: "in", per: 8},
		NumReducers: 1,
		MaxAttempts: 4,
		Map: func(ctx *TaskContext, rec int, emit func(string, int)) error {
			attempts.Add(1)
			return nil
		},
		Partition: func(k string, r int) int { return 0 },
		Less:      func(a, b string) bool { return a < b },
		Reduce: func(ctx *TaskContext, values *Values[string, int], emit func(string)) error {
			return nil
		},
	}
	_, err := Run(NewCluster(fsys, 1, 1), job)
	if err == nil {
		t.Fatal("job succeeded despite malformed input")
	}
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T, want *TaskError in chain", err)
	}
	if te.Attempts != 1 || te.Exhausted {
		t.Errorf("parse failure retried: attempts=%d exhausted=%v", te.Attempts, te.Exhausted)
	}
	if !strings.Contains(err.Error(), "bad-int") {
		t.Errorf("error does not name the bad record: %q", err)
	}
}

// Transient failures must retry with metered backoff and still produce the
// exact result, with the spq.retry.* counters recording the activity.
func TestRetryBackoffCounters(t *testing.T) {
	job := wordCountJob([]string{"a b c", "a"}, 2)
	job.MaxAttempts = 3
	job.RetryBackoff = 200 * time.Microsecond
	var failures atomic.Int64
	job.FaultInjector = func(kind TaskKind, taskID, attempt int) error {
		if kind == MapTask && taskID == 0 && attempt <= 2 {
			failures.Add(1)
			return errors.New("transient hiccup")
		}
		return nil
	}
	res, err := Run(NewCluster(nil, 2, 2), job)
	if err != nil {
		t.Fatal(err)
	}
	if failures.Load() != 2 {
		t.Fatalf("injector fired %d times, want 2", failures.Load())
	}
	if got := res.Counters[CounterRetryMap]; got != 2 {
		t.Errorf("%s = %d, want 2", CounterRetryMap, got)
	}
	if got := res.Counters[CounterRetryBackoffMicros]; got < 400 {
		t.Errorf("%s = %d, want >= 400 (two backoffs of >= 200us)", CounterRetryBackoffMicros, got)
	}
	if got := res.Counters[CounterTaskRetries]; got != 2 {
		t.Errorf("%s = %d, want 2", CounterTaskRetries, got)
	}
	got := map[string]bool{}
	for _, o := range res.Output {
		got[o] = true
	}
	for _, want := range []string{"a=2", "b=1", "c=1"} {
		if !got[want] {
			t.Errorf("output missing %q after retries: %v", want, res.Output)
		}
	}
}

// retryDelay must double per retry and respect the cap and the disable
// switch.
func TestRetryDelayShape(t *testing.T) {
	if d := retryDelay(-1, 1); d != 0 {
		t.Errorf("negative base: delay = %v, want 0", d)
	}
	if d := retryDelay(0, 1); d != defaultRetryBackoff {
		t.Errorf("zero base first retry = %v, want default %v", d, defaultRetryBackoff)
	}
	base := 2 * time.Millisecond
	if d := retryDelay(base, 2); d != 4*time.Millisecond {
		t.Errorf("second retry = %v, want doubled base", d)
	}
	if d := retryDelay(base, 60); d != maxRetryBackoff {
		t.Errorf("huge retry count = %v, want cap %v", d, maxRetryBackoff)
	}
}
