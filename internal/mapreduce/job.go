// Package mapreduce is an in-process MapReduce framework modeled after
// Hadoop as used by the paper (Section 2.1): a job consists of a Map
// function, a Partitioner that routes map output keys to Reduce tasks, a
// key Comparator that fixes the order in which a Reduce task sees its
// records (enabling secondary sort on composite keys), a grouping
// Comparator that delimits reduce groups, and a Reduce function that
// receives the values of one group as an iterator.
//
// The iterator-based reduce interface is load-bearing for this repository:
// the early-termination algorithms of Section 5 (eSPQlen, eSPQsco) stop
// consuming values mid-group, and the engine guarantees that unconsumed
// records are never materialized beyond the sort, mirroring how a Hadoop
// reducer can return early.
//
// A reduce task follows Hadoop's reducer lifecycle: Reduce runs once per
// group, in key order, and an optional Cleanup runs once after the last
// group. State the groups of one task share (the SPQ jobs keep one top-k
// list per task) lives in TaskContext.State, which every attempt starts
// without and which dies with the attempt, so a retried or failed attempt
// never leaks into another.
//
// The engine executes map and reduce tasks on a simulated cluster (package
// dfs provides the storage nodes) with a configurable number of worker
// slots, round-robin task assignment, per-task retry with fault
// injection, an in-memory map-side sort-and-merge shuffle, and Hadoop-style
// counters. Tasks run in-process or, for jobs with a wire form, on worker
// processes over net/rpc; both run the same map and reduce bodies.
package mapreduce

import (
	"bufio"
	"errors"
	"fmt"
	"time"
)

// Pair is one intermediate key/value record.
type Pair[K, V any] struct {
	Key   K
	Value V
}

// Codec serializes intermediate records into the shuffle runs remote map
// tasks publish and remote reduce tasks read. Encode and Decode must
// round-trip, and a key/value pair must encode to at least one byte. Decode
// reads bytes off the wire on a worker: on corrupt input it must return an
// error, never panic, and never size an allocation from a length it has
// not checked against the bytes present.
type Codec[T any] struct {
	Encode func(w *bufio.Writer, t T) error
	Decode func(r *bufio.Reader) (T, error)
}

// TaskKind distinguishes map from reduce tasks in fault injectors and
// scheduling hooks.
type TaskKind int

// The two task kinds.
const (
	MapTask TaskKind = iota
	ReduceTask
)

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	if k == MapTask {
		return "map"
	}
	return "reduce"
}

// Job describes one MapReduce job over records of type I, intermediate
// pairs (K, V) and output records O.
type Job[I, K, V, O any] struct {
	// Name labels the job in errors and stats.
	Name string

	// Source provides the input splits (column blocks in package dfs, or
	// an in-memory source).
	Source Source[I]

	// Map is invoked once per input record and emits intermediate pairs.
	Map func(ctx *TaskContext, rec I, emit func(K, V)) error

	// MapBatch, when non-nil, maps the batches of splits that offer them
	// (see BatchSplit) in place of Map: it is invoked once per batch,
	// emits the same pairs Map would emit for the batch's records, and
	// returns how many input records the batch held.
	MapBatch func(ctx *TaskContext, batch any, emit func(K, V)) (records int, err error)

	// NumReducers is the number of reduce tasks R. The paper sets R to the
	// number of grid cells. Must be positive.
	NumReducers int

	// Partition routes a key to one of the NumReducers reduce tasks. It is
	// the analogue of Hadoop's custom Partitioner (the paper partitions by
	// the cell-id half of the composite key).
	Partition func(key K, numReducers int) int

	// Less is the full composite-key comparator fixing the order in which
	// a reduce task iterates its records (Hadoop's sort comparator).
	Less func(a, b K) bool

	// Compare optionally provides the three-way form of Less (negative,
	// zero, positive). The sort and merge hot paths call the comparator
	// once per comparison through it; when nil, the engine derives it from
	// Less at twice the call cost. When both are set they must agree.
	Compare func(a, b K) int

	// GroupEqual is the grouping comparator: consecutive sorted records
	// whose keys are GroupEqual form one reduce group. If nil, every
	// record is its own group.
	GroupEqual func(a, b K) bool

	// Reduce is invoked once per group with an iterator over the group's
	// pairs in Less order. It may stop consuming values at any point
	// (early termination). Output records are passed to emit.
	Reduce func(ctx *TaskContext, values *Values[K, V], emit func(O)) error

	// Cleanup, when non-nil, is invoked once per reduce-task attempt after
	// its last group — also for a task that received no records — and may
	// emit the output the task's groups accumulated in ctx.State (Hadoop's
	// Reducer.cleanup).
	Cleanup func(ctx *TaskContext, emit func(O)) error

	// KeyCodec and ValueCodec serialize intermediate records. They are
	// required for remote execution (a job with a Wire form) and unused by
	// the local executor, whose shuffle never leaves memory.
	KeyCodec   *Codec[K]
	ValueCodec *Codec[V]

	// MaxAttempts is the per-task retry budget (default 1, i.e. no retry).
	// Attempts whose error is marked Permanent fail fast without consuming
	// the remaining budget. A job whose tasks exhaust their budgets fails
	// with one aggregated *JobError wrapping ErrTooManyFailures.
	MaxAttempts int

	// RetryBackoff is the base delay of the capped exponential backoff
	// between task attempts: the first retry waits RetryBackoff, doubling
	// per subsequent retry up to an internal cap. Zero means a small
	// default; negative disables backoff.
	RetryBackoff time.Duration

	// FaultInjector, if non-nil, is consulted before each task attempt;
	// a non-nil return fails that attempt. Used by the failure tests.
	// The hook is a closure and cannot be shipped, so a job may not carry
	// both an injector and a Wire form.
	FaultInjector func(kind TaskKind, taskID, attempt int) error

	// Wire, when non-nil, gives the job a serializable self-description and
	// makes it a remote-only job: it runs on the cluster's remote executor,
	// whose workers reconstruct it (see RegisterJobKind), and fails when
	// the cluster has none or a split serializes no reference. Nil keeps
	// the job in-process.
	Wire *WireJob
}

// WireJob is a job's serializable self-description: a registered kind plus
// an opaque, kind-specific spec blob a worker-side builder turns back into
// a runnable job.
type WireJob struct {
	// Kind names the worker-side builder (see RegisterJobKind).
	Kind string
	// Spec is the kind-specific job description, opaque to the framework.
	Spec []byte
}

// compare returns the job's three-way key comparator, deriving one from
// Less when Compare is not set.
func (j *Job[I, K, V, O]) compare() func(a, b K) int {
	if j.Compare != nil {
		return j.Compare
	}
	less := j.Less
	return func(a, b K) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	}
}

// validate checks the job for structural errors before execution.
func (j *Job[I, K, V, O]) validate() error {
	switch {
	case j.Source == nil:
		return fmt.Errorf("mapreduce: job %q: nil Source", j.Name)
	case j.Map == nil:
		return fmt.Errorf("mapreduce: job %q: nil Map", j.Name)
	case j.Reduce == nil:
		return fmt.Errorf("mapreduce: job %q: nil Reduce", j.Name)
	case j.NumReducers <= 0:
		return fmt.Errorf("mapreduce: job %q: NumReducers = %d", j.Name, j.NumReducers)
	case j.Partition == nil:
		return fmt.Errorf("mapreduce: job %q: nil Partition", j.Name)
	case j.Less == nil:
		return fmt.Errorf("mapreduce: job %q: nil Less", j.Name)
	case j.Wire != nil && j.FaultInjector != nil:
		return fmt.Errorf("mapreduce: job %q: a wire form and a fault injector", j.Name)
	}
	return nil
}

// ErrTooManyFailures is wrapped into the error returned when a task
// exhausts its retry budget.
var ErrTooManyFailures = errors.New("mapreduce: task exceeded retry budget")
