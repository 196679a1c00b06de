package mapreduce

import (
	"context"
	"slices"
	"sync"
	"time"
)

// Cluster admission control. Historically every job assumed it owned all
// of the cluster's worker slots: Run fanned out one goroutine per slot,
// so N concurrent jobs oversubscribed the machine N times over. The slot
// pool makes the slots a shared, admission-controlled resource — exactly
// the shared Hadoop cluster of the paper's deployment model, where many
// queries compete for the same task trackers.
//
// Concurrent jobs draw their map and reduce tasks from one pool per
// phase. A task acquires a slot token before it runs and releases it
// after; with a single job the pool is contention-free (the job spawns
// exactly as many worker goroutines as there are slots), while concurrent
// jobs interleave at task granularity. Admission is FIFO across all
// jobs, through one queue.

// waiter is one task blocked on slot admission.
type waiter struct {
	ch chan struct{}
}

// slotPool is a FIFO counting semaphore. A released slot is handed
// directly to the longest-waiting task, so admission order is independent
// of goroutine scheduling.
type slotPool struct {
	mu    sync.Mutex
	free  int
	queue []*waiter
}

func newSlotPool(slots int) *slotPool {
	if slots < 1 {
		slots = 1
	}
	return &slotPool{free: slots}
}

// acquire blocks until a slot is available or ctx is done. It reports how
// long the task waited and the queue depth observed at enqueue time (0
// when admitted immediately). On cancellation no slot is held and the
// returned error is ctx.Err(); a queued waiter leaves the queue, so an
// abandoned query's tasks stop consuming admission positions.
func (p *slotPool) acquire(ctx context.Context) (waited time.Duration, depth int, err error) {
	p.mu.Lock()
	if p.free > 0 {
		p.free--
		p.mu.Unlock()
		return 0, 0, nil
	}
	w := &waiter{ch: make(chan struct{})}
	p.queue = append(p.queue, w)
	depth = len(p.queue)
	p.mu.Unlock()
	start := time.Now()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ch:
		return time.Since(start), depth, nil
	case <-done:
	}
	// Canceled while queued: remove the waiter. If release already granted
	// it the slot (it is no longer queued), accept the grant and hand the
	// slot straight back so it is not leaked.
	p.mu.Lock()
	i := slices.Index(p.queue, w)
	if i >= 0 {
		p.queue = slices.Delete(p.queue, i, i+1)
	}
	p.mu.Unlock()
	if i < 0 {
		<-w.ch
		p.release()
	}
	return time.Since(start), depth, ctx.Err()
}

// release returns a slot, waking the longest-waiting task if any. The
// slot is transferred directly to the waiter rather than returned to the
// free count, which is what makes admission FIFO.
func (p *slotPool) release() {
	p.mu.Lock()
	var w *waiter
	if len(p.queue) > 0 {
		w = p.queue[0]
		p.queue = p.queue[1:]
	} else {
		p.free++
	}
	p.mu.Unlock()
	if w != nil {
		close(w.ch)
	}
}

// queueDepth returns the number of tasks currently waiting for a slot.
func (p *slotPool) queueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// slotPools returns the cluster's shared admission pools, creating them on
// first use. Pool capacity is frozen from MapSlots/ReduceSlots at that
// point; every job running on this cluster — concurrently or not — draws
// from the same two pools.
func (c *Cluster) slotPools() (mapPool, reducePool *slotPool) {
	c.poolsOnce.Do(func() {
		c.mapPool = newSlotPool(c.mapSlots())
		c.reducePool = newSlotPool(c.reduceSlots())
	})
	return c.mapPool, c.reducePool
}

// schedStats accumulates one job's admission outcomes for a phase; they
// are folded into the job counters once per worker goroutine rather than
// once per task.
type schedStats struct {
	admitted  int64
	queued    int64
	waitNanos int64
	maxDepth  int64
}

// observe records one admission.
func (s *schedStats) observe(waited time.Duration, depth int) {
	s.admitted++
	if depth > 0 {
		s.queued++
		s.waitNanos += waited.Nanoseconds()
		if int64(depth) > s.maxDepth {
			s.maxDepth = int64(depth)
		}
	}
}

// flush folds the accumulated outcomes into the job counters.
func (s *schedStats) flush(counters *Counters) {
	if s.admitted == 0 {
		return
	}
	counters.Add(CounterSchedAdmitted, s.admitted)
	counters.Add(CounterSchedQueued, s.queued)
	counters.Add(CounterSchedWaitMicros, s.waitNanos/1e3)
	counters.Max(CounterSchedMaxQueueDepth, s.maxDepth)
}
