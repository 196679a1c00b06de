// Package dfs implements a small in-process distributed file system
// modeled after HDFS as described in Section 2.1 of the paper: files are
// split into fixed-size blocks, blocks are stored on DataNodes with a
// configurable replication factor (default 3), and a NameNode tracks the
// mapping from files to blocks to replica locations.
//
// The file system is the storage substrate of the sealed SPQ3 segments and
// of the shuffle runs of remote map tasks: readers fetch byte ranges
// (ReadRange), and reads transparently fail over to another replica when a
// DataNode is marked dead or a replica fails its checksum.
//
// Blocks live in memory. This keeps the simulation fast and deterministic
// while preserving the properties the algorithms above it can observe:
// block-granular placement, replication and failure behaviour.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// castagnoli is the CRC32C polynomial table used for per-replica block
// checksums, matching HDFS's default block checksum algorithm.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultBlockSize is the block size used when Config.BlockSize is zero.
// The real HDFS default in the paper's cluster is 128 MiB; the simulation
// defaults to 256 KiB so that laptop-scale datasets still span many blocks
// and exercise split logic.
const DefaultBlockSize = 256 << 10

// DefaultReplication mirrors the paper's HDFS replication factor of 3.
const DefaultReplication = 3

// Common error conditions reported by the file system.
var (
	ErrNotFound      = errors.New("dfs: file not found")
	ErrExists        = errors.New("dfs: file already exists")
	ErrNoLiveReplica = errors.New("dfs: no live replica for block")
	ErrNoLiveNodes   = errors.New("dfs: no live datanodes")
)

// Config parameterizes a file system.
type Config struct {
	// NumNodes is the number of DataNodes; 0 means 16, the size of the
	// paper's cluster.
	NumNodes int
	// BlockSize is the maximum block payload size in bytes; 0 means
	// DefaultBlockSize.
	BlockSize int
	// Replication is the number of replicas per block (capped at the
	// number of nodes); 0 means DefaultReplication.
	Replication int
	// Seed feeds the placement policy's randomness. The same seed yields
	// the same placement for the same write sequence.
	Seed int64
	// Faults, when non-nil, installs a deterministic fault-injection
	// schedule (see FaultPlan). Nil means no injected faults.
	Faults *FaultPlan
}

func (c Config) withDefaults() Config {
	if c.NumNodes <= 0 {
		c.NumNodes = 16
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
	}
	if c.Replication <= 0 {
		c.Replication = DefaultReplication
	}
	if c.Replication > c.NumNodes {
		c.Replication = c.NumNodes
	}
	return c
}

// BlockID identifies a block cluster-wide.
type BlockID int64

// blockMeta is the NameNode's record of one block.
type blockMeta struct {
	id       BlockID
	length   int
	sum      uint32 // CRC32C of the payload, verified on every replica read
	replicas []int  // node indices
}

// fileMeta is the NameNode's record of one file.
type fileMeta struct {
	name   string
	blocks []blockMeta
	length int64
}

// replicaState classifies the outcome of asking one DataNode for a block.
type replicaState int

const (
	replicaOK          replicaState = iota
	replicaDead                     // node is marked dead
	replicaMissing                  // node is alive but has no copy
	replicaQuarantined              // copy failed a checksum and was fenced off
)

// dataNode stores block payloads for one simulated server.
type dataNode struct {
	mu     sync.RWMutex
	name   string
	alive  bool
	blocks map[BlockID][]byte
	bad    map[BlockID]bool // quarantined (checksum-failed) replicas
}

func (d *dataNode) get(id BlockID) ([]byte, replicaState) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if !d.alive {
		return nil, replicaDead
	}
	if d.bad[id] {
		return nil, replicaQuarantined
	}
	b, ok := d.blocks[id]
	if !ok {
		return nil, replicaMissing
	}
	return b, replicaOK
}

func (d *dataNode) put(id BlockID, payload []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blocks[id] = payload
	delete(d.bad, id)
}

// quarantine fences off a checksum-failed replica so later reads skip it.
// It reports whether the mark is new.
func (d *dataNode) quarantine(id BlockID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bad == nil {
		d.bad = make(map[BlockID]bool)
	}
	if d.bad[id] {
		return false
	}
	d.bad[id] = true
	return true
}

// drop removes a replica (payload and any quarantine mark).
func (d *dataNode) drop(id BlockID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.blocks, id)
	delete(d.bad, id)
}

// FileSystem is the combination of a NameNode and its DataNodes. It is safe
// for concurrent use.
type FileSystem struct {
	cfg    Config
	nodes  []*dataNode
	faults *FaultPlan

	mu      sync.RWMutex
	files   map[string]*fileMeta
	nextBlk BlockID
	rng     *rand.Rand

	// reads is the global block-read counter driving the fault plan's
	// deterministic schedules (transient errors, crash events). Only a
	// file system with a fault plan counts.
	reads atomic.Int64
	// crashCursor indexes the first unapplied entry of faults.Crashes;
	// guarded by crashMu so each event fires exactly once.
	crashCursor atomic.Int64
	crashMu     sync.Mutex
	// failBudget counts replica read attempts against FailFirstReads.
	failBudget atomic.Int64

	stats faultCounters
}

// New creates a file system with the given configuration.
func New(cfg Config) *FileSystem {
	cfg = cfg.withDefaults()
	fs := &FileSystem{
		cfg:    cfg,
		faults: cfg.Faults.normalized(),
		files:  make(map[string]*fileMeta),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cfg.NumNodes; i++ {
		fs.nodes = append(fs.nodes, &dataNode{
			name:   fmt.Sprintf("d%d", i+1),
			alive:  true,
			blocks: make(map[BlockID][]byte),
		})
	}
	return fs
}

// Config returns the (defaulted) configuration the file system runs with.
func (fs *FileSystem) Config() Config { return fs.cfg }

// NumNodes returns the number of DataNodes.
func (fs *FileSystem) NumNodes() int { return len(fs.nodes) }

// NodeName returns the host name of DataNode i ("d1".."dN").
func (fs *FileSystem) NodeName(i int) string { return fs.nodes[i].name }

// KillNode marks DataNode i dead: its replicas become unreadable until
// ReviveNode. Used by failure-injection tests.
func (fs *FileSystem) KillNode(i int) {
	fs.nodes[i].mu.Lock()
	fs.nodes[i].alive = false
	fs.nodes[i].mu.Unlock()
}

// ReviveNode marks DataNode i alive again.
func (fs *FileSystem) ReviveNode(i int) {
	fs.nodes[i].mu.Lock()
	fs.nodes[i].alive = true
	fs.nodes[i].mu.Unlock()
}

// liveNodes returns the indices of alive DataNodes.
func (fs *FileSystem) liveNodes() []int {
	var out []int
	for i, n := range fs.nodes {
		n.mu.RLock()
		if n.alive {
			out = append(out, i)
		}
		n.mu.RUnlock()
	}
	return out
}

// placeReplicas picks Replication distinct live nodes for a new block.
func (fs *FileSystem) placeReplicas() ([]int, error) {
	live := fs.liveNodes()
	if len(live) == 0 {
		return nil, ErrNoLiveNodes
	}
	k := fs.cfg.Replication
	if k > len(live) {
		k = len(live)
	}
	// Concurrent writers (worker Store RPCs) share the placement rng.
	fs.mu.Lock()
	fs.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	fs.mu.Unlock()
	picked := append([]int(nil), live[:k]...)
	sort.Ints(picked)
	return picked, nil
}

// Create writes data as a new file, splitting it into blocks and placing
// replicas. It fails with ErrExists if the name is taken.
func (fs *FileSystem) Create(name string, data []byte) error {
	w, err := fs.Writer(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// Delete removes a file and drops its blocks from all replicas.
func (fs *FileSystem) Delete(name string) error {
	fs.mu.Lock()
	f, ok := fs.files[name]
	if ok {
		delete(fs.files, name)
	}
	fs.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	for _, b := range f.blocks {
		for _, ni := range b.replicas {
			fs.nodes[ni].drop(b.id)
		}
	}
	return nil
}

// Exists reports whether a file with the given name exists.
func (fs *FileSystem) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// List returns the names of all files, sorted.
func (fs *FileSystem) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := make([]string, 0, len(fs.files))
	for name := range fs.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the length of the named file in bytes.
func (fs *FileSystem) Len(name string) (int64, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, ErrNotFound
	}
	return f.length, nil
}

// ReadAll returns the full contents of the named file, reading each block
// from any live replica.
func (fs *FileSystem) ReadAll(name string) ([]byte, error) {
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, 0, f.length)
	for i, b := range f.blocks {
		payload, err := fs.readBlock(name, i, b)
		if err != nil {
			return nil, err
		}
		out = append(out, payload...)
	}
	return out, nil
}

// ReplicaError reports a block read that found no usable replica, broken
// down by cause so chaos-test failures are diagnosable. It unwraps to
// ErrNoLiveReplica.
type ReplicaError struct {
	File      string
	Block     int     // block index within the file
	ID        BlockID // cluster-wide block id
	Dead      int     // replicas on dead DataNodes
	Missing   int     // replicas absent from their (live) DataNode
	Corrupted int     // replicas quarantined after a checksum mismatch
	Transient int     // replicas that failed with an injected transient error
}

func (e *ReplicaError) Error() string {
	return fmt.Sprintf(
		"dfs: no usable replica for block %d of %q (block id %d): %d on dead nodes, %d missing, %d quarantined corrupt, %d transient read error(s)",
		e.Block, e.File, e.ID, e.Dead, e.Missing, e.Corrupted, e.Transient)
}

func (e *ReplicaError) Unwrap() error { return ErrNoLiveReplica }

// IsTransient reports whether at least one replica failed only with an
// injected transient error, so a retry of the same read may succeed without
// any repair — even if other replicas are dead or gone for good.
func (e *ReplicaError) IsTransient() bool {
	return e.Transient > 0
}

// readBlock fetches a block payload, failing over across replicas. Every
// candidate payload is checksum-verified; a corrupt copy is quarantined and
// the read moves on to the next replica. When corruption was detected and a
// healthy copy found, the block is re-replicated inline (read repair). The
// payload returned is the replica's own, which no code modifies: a
// corrupt copy is replaced, never repaired in place. Without a fault plan
// a read takes no global read index and a healthy one allocates nothing.
func (fs *FileSystem) readBlock(file string, idx int, b blockMeta) ([]byte, error) {
	var readIdx int64
	if fs.faults != nil {
		readIdx = fs.reads.Add(1)
		fs.applyCrashSchedule(readIdx)
	}
	var dead, missing, corrupted, transient int
	for _, ni := range b.replicas {
		payload, st := fs.nodes[ni].get(b.id)
		switch st {
		case replicaDead:
			dead++
			continue
		case replicaMissing:
			missing++
			continue
		case replicaQuarantined:
			corrupted++
			continue
		}
		if fs.transientReadError(readIdx, ni) {
			transient++
			fs.stats.transientErrors.Add(1)
			continue
		}
		if crc32.Checksum(payload, castagnoli) != b.sum {
			corrupted++
			fs.stats.corruptionsDetected.Add(1)
			if fs.nodes[ni].quarantine(b.id) {
				fs.stats.replicasQuarantined.Add(1)
			}
			continue
		}
		if dead+missing+corrupted+transient > 0 {
			fs.stats.failoverReads.Add(1)
		}
		if corrupted > 0 {
			// Read repair: a replica was just quarantined, so the block is
			// under-replicated; restore the factor from this healthy copy.
			fs.repairBlock(file, idx, payload, nil)
		}
		return payload, nil
	}
	return nil, &ReplicaError{File: file, Block: idx, ID: b.id,
		Dead: dead, Missing: missing, Corrupted: corrupted, Transient: transient}
}

// BlockLocations returns, for each block of the file in order, the names of
// the DataNodes holding a replica.
func (fs *FileSystem) BlockLocations(name string) ([][]string, error) {
	fs.mu.RLock()
	f, ok := fs.files[name]
	fs.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	out := make([][]string, len(f.blocks))
	for i, b := range f.blocks {
		hosts := make([]string, len(b.replicas))
		for j, ni := range b.replicas {
			hosts[j] = fs.nodes[ni].name
		}
		out[i] = hosts
	}
	return out, nil
}

// Writer returns an io.WriteCloser that streams a new file into the file
// system, cutting blocks at the configured block size. The file becomes
// visible atomically on Close ("write-once" semantics, like HDFS).
func (fs *FileSystem) Writer(name string) (*Writer, error) {
	fs.mu.RLock()
	_, exists := fs.files[name]
	fs.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	return &Writer{fs: fs, meta: &fileMeta{name: name}}, nil
}

// Writer streams data into a new file. Not safe for concurrent use.
type Writer struct {
	fs     *FileSystem
	meta   *fileMeta
	buf    []byte
	closed bool
}

// Write appends p to the file, flushing full blocks as they are cut. Per
// the io.Writer contract it returns the number of bytes of p accepted:
// bytes held in the writer's buffer count as accepted (a later Write or
// Close retries the flush), so on a flush failure the count covers
// everything consumed so far rather than claiming zero.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("dfs: write on closed writer")
	}
	bs := w.fs.cfg.BlockSize
	written := 0
	for len(p) > 0 {
		if len(w.buf) == bs {
			if err := w.flushBlock(w.buf); err != nil {
				return written, err
			}
			w.buf = w.buf[:0]
		}
		n := min(bs-len(w.buf), len(p))
		w.buf = append(w.buf, p[:n]...)
		written += n
		p = p[n:]
	}
	if len(w.buf) == bs {
		if err := w.flushBlock(w.buf); err != nil {
			return written, err
		}
		w.buf = w.buf[:0]
	}
	return written, nil
}

func (w *Writer) flushBlock(payload []byte) error {
	replicas, err := w.fs.placeReplicas()
	if err != nil {
		return err
	}
	w.fs.mu.Lock()
	id := w.fs.nextBlk
	w.fs.nextBlk++
	w.fs.mu.Unlock()

	stored := append([]byte(nil), payload...)
	sum := crc32.Checksum(stored, castagnoli)
	corruptAt := w.fs.faults.corruptReplica(id, len(replicas))
	for i, ni := range replicas {
		p := stored
		if i == corruptAt {
			// Persistent bit-flip on this replica's private copy; the
			// damage survives until a read quarantines it and repair
			// re-replicates from a healthy sibling.
			p = append([]byte(nil), stored...)
			p[len(p)/2] ^= 0x40
			w.fs.stats.corruptionsInjected.Add(1)
		}
		w.fs.nodes[ni].put(id, p)
	}
	w.meta.blocks = append(w.meta.blocks, blockMeta{id: id, length: len(payload), sum: sum, replicas: replicas})
	w.meta.length += int64(len(payload))
	return nil
}

// Close flushes the final partial block and publishes the file. It reports
// ErrExists if another writer published the same name first; in that case
// (and when the final flush fails) the blocks this writer already placed on
// DataNodes are deleted, so a lost publish race cannot leak orphans.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 {
		if err := w.flushBlock(w.buf); err != nil {
			w.discard()
			return err
		}
		w.buf = nil
	}
	w.fs.mu.Lock()
	if _, exists := w.fs.files[w.meta.name]; exists {
		w.fs.mu.Unlock()
		w.discard()
		return fmt.Errorf("%w: %s", ErrExists, w.meta.name)
	}
	w.fs.files[w.meta.name] = w.meta
	w.fs.mu.Unlock()
	return nil
}

// discard drops every block this writer flushed from all replicas.
func (w *Writer) discard() {
	for _, b := range w.meta.blocks {
		for _, ni := range b.replicas {
			w.fs.nodes[ni].drop(b.id)
		}
	}
	w.meta.blocks = nil
	w.meta.length = 0
}
