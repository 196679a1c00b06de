package mapreduce

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Admission-control tests: the cluster-shared slot pools that keep N
// concurrent jobs from oversubscribing the configured slots.

func TestSlotPoolImmediateWhenFree(t *testing.T) {
	p := newSlotPool(2)
	for i := 0; i < 2; i++ {
		waited, depth, err := p.acquire(context.Background())
		if waited != 0 || depth != 0 || err != nil {
			t.Fatalf("acquire %d: waited=%v depth=%d, want immediate", i, waited, depth)
		}
	}
	if got := p.queueDepth(); got != 0 {
		t.Fatalf("queueDepth = %d", got)
	}
	p.release()
	p.release()
	if waited, depth, err := p.acquire(context.Background()); waited != 0 || depth != 0 || err != nil {
		t.Fatalf("post-release acquire: waited=%v depth=%d", waited, depth)
	}
}

// TestSlotPoolFIFO holds the only slot, queues waiters, and checks they
// are woken in arrival order.
func TestSlotPoolFIFO(t *testing.T) {
	p := newSlotPool(1)
	p.acquire(context.Background()) // hold the slot

	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	enqueued := 0
	enqueue := func(name string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.acquire(context.Background()) //nolint:errcheck // background ctx never cancels
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			p.release()
		}()
		// Wait until the waiter is actually enqueued so arrival order is
		// deterministic.
		enqueued++
		deadline := time.Now().Add(time.Second)
		for p.queueDepth() < enqueued && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	want := []string{"w1", "w2", "w3", "w4"}
	for _, name := range want {
		enqueue(name)
	}
	if d := p.queueDepth(); d != 4 {
		t.Fatalf("queueDepth = %d, want 4", d)
	}
	p.release() // hand the slot down the queue
	wg.Wait()

	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
}

// admissionJob is a trivial word-free job whose map tasks sleep briefly,
// so concurrently running tasks overlap observably.
func admissionJob(chunks int, running, peak *atomic.Int64) *Job[int, int, int, int] {
	var src MemorySource[int]
	for i := 0; i < chunks; i++ {
		src.Chunks = append(src.Chunks, []int{i})
	}
	return &Job[int, int, int, int]{
		Name:   "admission",
		Source: &src,
		Map: func(ctx *TaskContext, rec int, emit func(int, int)) error {
			cur := running.Add(1)
			for {
				old := peak.Load()
				if cur <= old || peak.CompareAndSwap(old, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			emit(rec%2, rec)
			return nil
		},
		NumReducers: 2,
		Partition:   func(k, r int) int { return k % r },
		Less:        func(a, b int) bool { return a < b },
		Reduce: func(ctx *TaskContext, values *Values[int, int], emit func(int)) error {
			for {
				if _, ok := values.Next(); !ok {
					return nil
				}
			}
		},
	}
}

// TestConcurrentJobsShareSlots runs several jobs at once on a 2-slot
// cluster and asserts the map-task concurrency across ALL jobs never
// exceeds the slot count — the invariant the shared pool exists for.
func TestConcurrentJobsShareSlots(t *testing.T) {
	c := NewCluster(nil, 2, 2)
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			_, err := Run(c, admissionJob(6, &running, &peak))
			errs[j] = err
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
	if got := peak.Load(); got > 2 {
		t.Errorf("peak concurrent map tasks = %d, want <= 2 (the shared slot count)", got)
	}
}

// TestSchedCounters checks a lone job is admitted without queueing and a
// contended run records queueing and wait time.
func TestSchedCounters(t *testing.T) {
	c := NewCluster(nil, 1, 1)
	var running, peak atomic.Int64

	res, err := Run(c, admissionJob(3, &running, &peak))
	if err != nil {
		t.Fatal(err)
	}
	admitted := res.Counters[CounterSchedAdmitted]
	if admitted != 3+2 { // 3 map tasks + 2 reduce tasks
		t.Errorf("admitted = %d, want 5", admitted)
	}
	if q := res.Counters[CounterSchedQueued]; q != 0 {
		t.Errorf("lone job queued = %d, want 0", q)
	}

	// Contended: two jobs on the 1-slot cluster; at least one records
	// queued tasks and waiting time.
	var wg sync.WaitGroup
	results := make([]*Result[int], 2)
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			r, err := Run(c, admissionJob(4, &running, &peak))
			if err != nil {
				t.Error(err)
				return
			}
			results[j] = r
		}(j)
	}
	wg.Wait()
	var queued, wait int64
	for _, r := range results {
		if r == nil {
			t.Fatal("missing result")
		}
		queued += r.Counters[CounterSchedQueued]
		wait += r.Counters[CounterSchedWaitMicros]
	}
	if queued == 0 {
		t.Error("two jobs on one slot recorded no queueing")
	}
	if wait == 0 {
		t.Error("queued tasks recorded no wait time")
	}
}
