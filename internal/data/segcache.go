package data

import (
	"container/list"
	"sync"
)

// Decoded-segment cache: an LRU over decoded column blocks, keyed on
// (storage generation, cell file, block index). Sealed segments are
// write-once, so a decoded block is valid for as long as its generation is
// served; a compaction writes new files under a new generation, making the
// old entries unreachable by construction (they age out of the LRU), the
// same invalidation discipline the engine's query cache uses. Hot
// clustered queries — repeats over the same few cells — skip both the
// ranged read and the columnar decode entirely.
//
// The cache budget is decoded bytes, not entry count: SPQ3's adaptive
// block sizes put anywhere from 256 to 4096 records in one block, so an
// entry-counted LRU could hold 16x more memory than intended depending on
// which cells happen to be hot. Each entry is charged ColumnBlock.MemBytes.

// DefaultBlockCacheBytes is the default budget of the decoded-segment
// cache: 48 MiB of decoded columns.
const DefaultBlockCacheBytes = 48 << 20

// BlockKey identifies one decoded block.
type BlockKey struct {
	// Gen is the storage generation the block's manifest seals.
	Gen uint64
	// File is the cell segment file; Index is the block's position in the
	// cell's zone-map list.
	File  string
	Index int
}

// BlockCacheStats is the cumulative outcome of a BlockCache.
type BlockCacheStats struct {
	Hits, Misses int64
	Entries      int
	// Bytes is the decoded size currently held, as charged against the
	// cache's byte budget.
	Bytes int64
}

// BlockCache is a mutex-guarded LRU of decoded column blocks, shared by
// every query of one engine. Blocks are immutable after decode, so a hit
// hands out the cached instance itself.
type BlockCache struct {
	mu      sync.Mutex
	cap     int64      // byte budget
	bytes   int64      // decoded bytes currently held
	ll      *list.List // front = most recently used
	entries map[BlockKey]*list.Element
	hits    int64
	misses  int64
}

type blockEntry struct {
	key   BlockKey
	block *ColumnBlock
	bytes int64
}

// NewBlockCache creates a cache holding up to capacity bytes of decoded
// blocks. capacity <= 0 selects DefaultBlockCacheBytes.
func NewBlockCache(capacity int64) *BlockCache {
	if capacity <= 0 {
		capacity = DefaultBlockCacheBytes
	}
	return &BlockCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[BlockKey]*list.Element),
	}
}

// Get returns the cached block for key, if present.
func (c *BlockCache) Get(key BlockKey) (*ColumnBlock, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*blockEntry).block, true
}

// Put stores a decoded block, evicting least recently used entries until
// the decoded bytes fit the budget. A block larger than the whole budget
// is still admitted (alone) — refusing it would make its cell un-cacheable
// and thrash the decode path. Concurrent decoders of the same block may
// both Put; the last one wins, which is harmless because decoded blocks of
// one (gen, file, index) are identical.
func (c *BlockCache) Put(key BlockKey, b *ColumnBlock) {
	if c == nil {
		return
	}
	size := int64(b.MemBytes())
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*blockEntry)
		c.bytes += size - ent.bytes
		ent.block = b
		ent.bytes = size
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&blockEntry{key: key, block: b, bytes: size})
		c.bytes += size
	}
	for c.bytes > c.cap && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		ent := oldest.Value.(*blockEntry)
		c.ll.Remove(oldest)
		delete(c.entries, ent.key)
		c.bytes -= ent.bytes
	}
}

// Stats snapshots the cumulative hit/miss counts and current size.
func (c *BlockCache) Stats() BlockCacheStats {
	if c == nil {
		return BlockCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return BlockCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(), Bytes: c.bytes}
}
