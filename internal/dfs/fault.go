package dfs

import (
	"sort"
	"sync/atomic"
)

// FaultPlan is a seeded, deterministic fault-injection schedule. All
// decisions are pure functions of (Seed, the global block-read index, the
// replica's node), so any failure run is replayable from its seed: the
// same plan against the same write/read sequence injects the same faults.
//
// The zero value (or a nil plan) injects nothing.
type FaultPlan struct {
	// Seed feeds the per-read hash behind probabilistic decisions.
	Seed int64

	// TransientReadProb in [0,1) makes each replica read fail with an
	// injected transient I/O error with this probability. Failed replicas
	// are skipped by failover, so a read only errors when every replica
	// draws a failure; a retried read re-draws and may succeed.
	TransientReadProb float64

	// FailFirstReads makes the first N replica read attempts fail
	// transiently (a deterministic "storage is down at first" schedule).
	// With replication factor R, a budget of R*k fails exactly k whole
	// block reads before the store heals — the knob behind the
	// "task fails N−1 times then completes" retry proof.
	FailFirstReads int64

	// CorruptEveryN persistently bit-flips one replica of every Nth block
	// (by BlockID) as it is written. The damage sits on the DataNode until
	// a read detects the checksum mismatch, quarantines the replica, and
	// read repair restores the replication factor.
	CorruptEveryN int

	// Crashes kills and revives DataNodes when the global block-read
	// counter reaches each event's AtRead. Events are applied in AtRead
	// order, each exactly once.
	Crashes []CrashEvent

	// WorkerKills schedules execution-worker crashes, the only membership
	// change of the distributed execution layer. The DFS itself ignores
	// these events; the execution layer interprets them, killing the named
	// worker once its task dispatch count reaches AfterTasks (see
	// mapreduce.RPCExecutor). They live on the fault plan so a chaos run's
	// storage and execution faults replay from one seeded schedule.
	WorkerKills []WorkerKillEvent
}

// WorkerKillEvent is one scheduled execution-worker crash.
type WorkerKillEvent struct {
	Worker     string // worker name as registered with the master
	AfterTasks int    // fires when the worker's task dispatch count reaches this
}

// CrashEvent is one scheduled node crash or revival.
type CrashEvent struct {
	AtRead int64 // fires before the first block read whose index >= AtRead
	Node   int   // DataNode index
	Revive bool  // true revives the node instead of killing it
}

// normalized returns a copy safe to install: crash events sorted by AtRead
// so the cursor can apply them in order. A nil plan stays nil.
func (p *FaultPlan) normalized() *FaultPlan {
	if p == nil {
		return nil
	}
	q := *p
	q.Crashes = append([]CrashEvent(nil), p.Crashes...)
	sort.SliceStable(q.Crashes, func(i, j int) bool { return q.Crashes[i].AtRead < q.Crashes[j].AtRead })
	return &q
}

// splitmix64 is the finalizer of the SplitMix64 generator; it turns a
// counter into a well-mixed 64-bit value, giving replayable "randomness"
// without any shared generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a hash to [0,1).
func unitFloat(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// transientReadError decides whether the replica read (readIdx, node)
// fails with an injected transient error. The FailFirstReads budget lives
// on the file system (one consumption counter per installed plan).
func (fs *FileSystem) transientReadError(readIdx int64, node int) bool {
	p := fs.faults
	if p == nil {
		return false
	}
	if p.FailFirstReads > 0 && fs.failBudget.Add(1) <= p.FailFirstReads {
		return true
	}
	if p.TransientReadProb <= 0 {
		return false
	}
	h := splitmix64(uint64(p.Seed) ^ splitmix64(uint64(readIdx)^splitmix64(uint64(node)+0x51ed2701)))
	return unitFloat(h) < p.TransientReadProb
}

// corruptReplica decides which replica (index into the placement list) of a
// freshly written block gets a persistent bit flip; -1 means none.
func (p *FaultPlan) corruptReplica(id BlockID, numReplicas int) int {
	if p == nil || p.CorruptEveryN <= 0 || numReplicas == 0 {
		return -1
	}
	if int64(id)%int64(p.CorruptEveryN) != 0 {
		return -1
	}
	return int(splitmix64(uint64(p.Seed)^splitmix64(uint64(id))) % uint64(numReplicas))
}

// applyCrashSchedule fires every pending crash/revive event whose AtRead
// has been reached. The atomic fast path keeps the no-plan and
// fully-applied cases lock-free on the read hot path.
func (fs *FileSystem) applyCrashSchedule(readIdx int64) {
	p := fs.faults
	if p == nil || len(p.Crashes) == 0 {
		return
	}
	cur := fs.crashCursor.Load()
	if cur >= int64(len(p.Crashes)) || p.Crashes[cur].AtRead > readIdx {
		return
	}
	fs.crashMu.Lock()
	defer fs.crashMu.Unlock()
	for cur = fs.crashCursor.Load(); cur < int64(len(p.Crashes)) && p.Crashes[cur].AtRead <= readIdx; cur++ {
		ev := p.Crashes[cur]
		if ev.Node >= 0 && ev.Node < len(fs.nodes) {
			if ev.Revive {
				fs.ReviveNode(ev.Node)
			} else {
				fs.KillNode(ev.Node)
			}
		}
	}
	fs.crashCursor.Store(cur)
}

// faultCounters aggregates fault, failover and repair activity. All fields
// are atomics so the hot read path can bump them without locks.
type faultCounters struct {
	transientErrors     atomic.Int64
	corruptionsDetected atomic.Int64
	corruptionsInjected atomic.Int64
	replicasQuarantined atomic.Int64
	failoverReads       atomic.Int64
	repairedBlocks      atomic.Int64
	repairReplicasAdded atomic.Int64
	repairReplicasDrop  atomic.Int64
	unrecoverableBlocks atomic.Int64
}

// FaultStats is a point-in-time snapshot of fault and repair activity.
// Subtracting two snapshots gives per-window deltas.
type FaultStats struct {
	// TransientReadErrors counts injected transient replica-read failures.
	TransientReadErrors int64
	// CorruptionsDetected counts checksum mismatches found on read or
	// during repair scans.
	CorruptionsDetected int64
	// CorruptionsInjected counts replicas bit-flipped by the fault plan at
	// write time.
	CorruptionsInjected int64
	// ReplicasQuarantined counts replicas fenced off after a mismatch.
	ReplicasQuarantined int64
	// FailoverReads counts block reads that succeeded only after skipping
	// at least one unusable replica.
	FailoverReads int64
	// RepairedBlocks counts blocks whose replica set was restored by
	// Repair or read repair.
	RepairedBlocks int64
	// RepairReplicasAdded / RepairReplicasDropped count replica copies
	// created from healthy sources and quarantined copies deleted.
	RepairReplicasAdded   int64
	RepairReplicasDropped int64
	// UnrecoverableBlocks counts blocks a repair scan found with no
	// healthy replica anywhere (data loss until a node revives).
	UnrecoverableBlocks int64
}

// Sub returns s - o, field by field.
func (s FaultStats) Sub(o FaultStats) FaultStats {
	return FaultStats{
		TransientReadErrors:   s.TransientReadErrors - o.TransientReadErrors,
		CorruptionsDetected:   s.CorruptionsDetected - o.CorruptionsDetected,
		CorruptionsInjected:   s.CorruptionsInjected - o.CorruptionsInjected,
		ReplicasQuarantined:   s.ReplicasQuarantined - o.ReplicasQuarantined,
		FailoverReads:         s.FailoverReads - o.FailoverReads,
		RepairedBlocks:        s.RepairedBlocks - o.RepairedBlocks,
		RepairReplicasAdded:   s.RepairReplicasAdded - o.RepairReplicasAdded,
		RepairReplicasDropped: s.RepairReplicasDropped - o.RepairReplicasDropped,
		UnrecoverableBlocks:   s.UnrecoverableBlocks - o.UnrecoverableBlocks,
	}
}

// Total returns the sum of all fault-activity fields; non-zero means the
// window saw injected faults, failovers or repairs.
func (s FaultStats) Total() int64 {
	return s.TransientReadErrors + s.CorruptionsDetected + s.CorruptionsInjected +
		s.ReplicasQuarantined + s.FailoverReads + s.RepairedBlocks +
		s.RepairReplicasAdded + s.RepairReplicasDropped + s.UnrecoverableBlocks
}

// FaultStats snapshots the file system's fault and repair counters.
func (fs *FileSystem) FaultStats() FaultStats {
	return FaultStats{
		TransientReadErrors:   fs.stats.transientErrors.Load(),
		CorruptionsDetected:   fs.stats.corruptionsDetected.Load(),
		CorruptionsInjected:   fs.stats.corruptionsInjected.Load(),
		ReplicasQuarantined:   fs.stats.replicasQuarantined.Load(),
		FailoverReads:         fs.stats.failoverReads.Load(),
		RepairedBlocks:        fs.stats.repairedBlocks.Load(),
		RepairReplicasAdded:   fs.stats.repairReplicasAdded.Load(),
		RepairReplicasDropped: fs.stats.repairReplicasDrop.Load(),
		UnrecoverableBlocks:   fs.stats.unrecoverableBlocks.Load(),
	}
}
