package spq

import (
	"spq/internal/dfs"
	"spq/internal/mapreduce"
)

// Distributed-execution counters (Report.Counters). They are emitted by
// the RPC executor when the engine runs with Config.Workers, and they are
// only present when non-zero — an in-process engine's reports never carry
// them. Per-worker task counts appear under CounterExecTasksPrefix + the
// worker name ("worker-1", "worker-2", ... in attachment order).
const (
	// CounterExecTasksPrefix prefixes the per-worker count of tasks that
	// completed successfully on that worker.
	CounterExecTasksPrefix = mapreduce.CounterExecTasksPrefix
	// CounterExecReexec counts task attempts re-dispatched to a different
	// worker after their primary worker was lost mid-job.
	CounterExecReexec = mapreduce.CounterExecReexec
	// CounterExecRPCBytes meters the payload bytes remote tasks moved
	// across the master boundary: input fetches and shuffle writes and
	// reads.
	CounterExecRPCBytes = mapreduce.CounterExecRPCBytes
	// CounterExecWorkersLost counts worker-loss transitions observed while
	// the query's job ran (a heartbeat or call failure, or an injected
	// FaultPlan.WorkerKills event).
	CounterExecWorkersLost = mapreduce.CounterExecWorkersLost
	// CounterExecWorkersQuarantined counts workers removed from dispatch
	// after consecutive per-call timeouts — slow-loss, a subset of
	// CounterExecWorkersLost distinct from heartbeat/transport death.
	CounterExecWorkersQuarantined = mapreduce.CounterExecWorkersQuarantined
	// CounterExecFallbackLocal counts jobs a distributed engine ran
	// in-process because its plan did not ship them: the query selected a
	// block of the uncompacted delta, which lives in the master's memory.
	CounterExecFallbackLocal = mapreduce.CounterExecFallbackLocal
)

// WorkerKillEvent schedules the loss of one named worker inside a
// FaultPlan: the master severs the worker's connection right before its
// AfterTasks-th task dispatch, so in-flight and subsequent calls to it
// fail exactly like a machine loss and the executor re-routes the work.
// The DFS itself ignores these events; they are interpreted by the
// execution layer.
type WorkerKillEvent = dfs.WorkerKillEvent
