// Package cache implements the array controller cache: a block-granular
// LRU with write-back semantics. Reads that hit are absorbed; writes are
// absorbed and marked dirty; evicting a dirty block emits a destage write
// the array must perform. A background destager can drain dirty blocks
// oldest-first.
//
// The cache is pure bookkeeping — it never performs I/O itself; it tells
// the caller which byte ranges must move.
package cache

import "fmt"

// Range is a contiguous logical byte range.
type Range struct {
	Off  int64
	Size int64
}

// Cache is a block LRU. Not safe for concurrent use; the simulator is
// single-threaded.
//
// Every resident block is one node threaded on two intrusive lists: the
// LRU list, and while the block is dirty the destage queue. Evicted
// nodes are reused and the returned range slices are scratch owned by
// the cache, so in steady state a lookup allocates nothing.
type Cache struct {
	blockSize int64
	capacity  int // in blocks

	entries  map[int64]*node
	lru      node // sentinel: lru.next is the most recent block
	dirtyq   node // sentinel: dirtyq.dnext is the oldest dirty block
	resident int
	dirtyN   int
	free     *node // evicted nodes awaiting reuse, chained through next

	// Scratch behind the returned slices: valid until the next call.
	blocks  []int64
	victims []int64
	missOut []Range
	evicted []Range

	hits       uint64
	misses     uint64
	destages   uint64
	writeHits  uint64
	writeAlloc uint64

	// lookups counters exist so `hits + misses == readLookups` (and the
	// write-side equivalent) can be checked as an invariant; they are
	// incremented in exactly one place each.
	readLookups  uint64
	writeLookups uint64
}

// node is one resident block.
type node struct {
	block        int64
	dirty        bool
	prev, next   *node // LRU list, most recent first
	dprev, dnext *node // destage queue, oldest first
}

// New creates a cache of capacityBytes split into blockSize blocks. A zero
// or negative capacity yields a cache that misses everything (useful for
// "no cache" configurations).
func New(capacityBytes, blockSize int64) *Cache {
	if blockSize <= 0 {
		panic(fmt.Sprintf("cache: block size must be positive, got %d", blockSize))
	}
	capBlocks := int(capacityBytes / blockSize)
	if capBlocks < 0 {
		capBlocks = 0
	}
	c := &Cache{blockSize: blockSize, capacity: capBlocks, entries: map[int64]*node{}}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.dirtyq.dprev, c.dirtyq.dnext = &c.dirtyq, &c.dirtyq
	return c
}

// BlockSize returns the cache block size in bytes.
func (c *Cache) BlockSize() int64 { return c.blockSize }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return c.resident }

// DirtyLen returns the number of dirty resident blocks.
func (c *Cache) DirtyLen() int { return c.dirtyN }

// Stats returns lifetime hit/miss/destage counters. Hits and misses count
// blocks, not requests.
func (c *Cache) Stats() (hits, misses, destages uint64) {
	return c.hits, c.misses, c.destages
}

// Lookups returns how many block lookups Read and Write performed. Every
// read lookup is a hit or a miss, and every write lookup a write-hit or a
// write-allocate — the conservation the invariant checker verifies.
func (c *Cache) Lookups() (read, write uint64) {
	return c.readLookups, c.writeLookups
}

// WriteStats returns the write-side block counters: blocks absorbed into
// resident entries and blocks allocated on write.
func (c *Cache) WriteStats() (writeHits, writeAllocs uint64) {
	return c.writeHits, c.writeAlloc
}

// blocksOf enumerates the block indices overlapping [off, off+size).
func (c *Cache) blocksOf(off, size int64) (first, last int64) {
	if off < 0 || size <= 0 {
		panic(fmt.Sprintf("cache: invalid range [%d,+%d)", off, size))
	}
	return off / c.blockSize, (off + size - 1) / c.blockSize
}

// Read looks up a logical range. It returns the byte ranges that missed
// (coalesced, block-aligned) and any dirty blocks evicted while inserting
// the missed blocks. The caller must read the misses from the array and
// write back the evictions. Both slices are valid until the next call on
// the cache.
func (c *Cache) Read(off, size int64) (misses, evictions []Range) {
	if c.capacity == 0 {
		return []Range{{Off: off, Size: size}}, nil
	}
	first, last := c.blocksOf(off, size)
	c.blocks = c.blocks[:0]
	for b := first; b <= last; b++ {
		c.readLookups++
		if n, ok := c.entries[b]; ok {
			c.hits++
			c.touch(n)
			continue
		}
		c.misses++
		c.blocks = append(c.blocks, b)
	}
	c.evicted = c.evicted[:0]
	for _, b := range c.blocks {
		c.insert(b, false)
	}
	c.missOut = coalesce(c.missOut[:0], c.blocks, c.blockSize)
	return c.missOut, c.evicted
}

// Write absorbs a logical write, marking the covered blocks dirty, and
// returns any dirty blocks evicted to make room. Partially covered blocks
// are treated as allocate-on-write (no fetch-before-write; the simulated
// destage rewrites whole blocks, a standard simplification). The slice is
// valid until the next call on the cache.
func (c *Cache) Write(off, size int64) (evictions []Range) {
	if c.capacity == 0 {
		return []Range{{Off: off, Size: size}}
	}
	first, last := c.blocksOf(off, size)
	c.evicted = c.evicted[:0]
	for b := first; b <= last; b++ {
		c.writeLookups++
		if n, ok := c.entries[b]; ok {
			c.writeHits++
			c.touch(n)
			c.markDirty(n)
			continue
		}
		c.writeAlloc++
		c.insert(b, true)
	}
	return c.evicted
}

// insert adds a block, evicting least-recently-used blocks as needed, and
// appends the destage ranges of the evicted dirty blocks to c.evicted.
func (c *Cache) insert(block int64, dirty bool) {
	c.victims = c.victims[:0]
	for c.resident >= c.capacity && c.lru.prev != &c.lru {
		ev := c.lru.prev
		c.unlink(ev)
		delete(c.entries, ev.block)
		c.resident--
		if ev.dirty {
			c.destages++
			c.victims = append(c.victims, ev.block)
			c.unmarkDirty(ev)
		}
		ev.next = c.free
		c.free = ev
	}
	n := c.free
	if n == nil {
		n = &node{}
	} else {
		c.free = n.next
	}
	*n = node{block: block}
	c.entries[block] = n
	c.pushFront(n)
	c.resident++
	if dirty {
		c.markDirty(n)
	}
	c.evicted = coalesce(c.evicted, c.victims, c.blockSize)
}

func (c *Cache) pushFront(n *node) {
	n.prev, n.next = &c.lru, c.lru.next
	c.lru.next.prev = n
	c.lru.next = n
}

func (c *Cache) unlink(n *node) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

// touch makes n the most recently used block.
func (c *Cache) touch(n *node) {
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache) markDirty(n *node) {
	if n.dirty {
		return
	}
	n.dirty = true
	n.dprev, n.dnext = c.dirtyq.dprev, &c.dirtyq
	c.dirtyq.dprev.dnext = n
	c.dirtyq.dprev = n
	c.dirtyN++
}

func (c *Cache) unmarkDirty(n *node) {
	n.dirty = false
	n.dprev.dnext = n.dnext
	n.dnext.dprev = n.dprev
	n.dprev, n.dnext = nil, nil
	c.dirtyN--
}

// FlushOldest cleans up to max dirty blocks (oldest first) and returns the
// ranges to write out. The blocks stay resident, now clean. The slice is
// valid until the next call on the cache.
func (c *Cache) FlushOldest(max int) []Range {
	c.victims = c.victims[:0]
	for i := 0; i < max && c.dirtyq.dnext != &c.dirtyq; i++ {
		n := c.dirtyq.dnext
		c.unmarkDirty(n)
		c.destages++
		c.victims = append(c.victims, n.block)
	}
	c.evicted = coalesce(c.evicted[:0], c.victims, c.blockSize)
	return c.evicted
}

// Fingerprint digests the cache's full structural state — the resident
// set in LRU order with per-block dirty bits, and the destage queue in
// age order — for snapshot comparison. Counters are deliberately
// excluded; they have their own accessors and snapshot keys.
func (c *Cache) Fingerprint() uint64 {
	const prime = 1099511628211
	mix := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
		return h
	}
	h := mix(14695981039346656037, uint64(c.blockSize))
	h = mix(h, uint64(c.capacity))
	for n := c.lru.next; n != &c.lru; n = n.next {
		v := uint64(n.block) << 1
		if n.dirty {
			v |= 1
		}
		h = mix(h, v)
	}
	for n := c.dirtyq.dnext; n != &c.dirtyq; n = n.dnext {
		h = mix(h, uint64(n.block))
	}
	return h
}

// Contains reports whether the block holding the byte offset is resident.
func (c *Cache) Contains(off int64) bool {
	_, ok := c.entries[off/c.blockSize]
	return ok
}

// coalesce appends the byte ranges of a block list to dst, merging
// adjacent blocks. Blocks may arrive unsorted; they are sorted in place.
func coalesce(dst []Range, blocks []int64, blockSize int64) []Range {
	if len(blocks) == 0 {
		return dst
	}
	// Insertion sort: lists are tiny and mostly sorted.
	for i := 1; i < len(blocks); i++ {
		for j := i; j > 0 && blocks[j] < blocks[j-1]; j-- {
			blocks[j], blocks[j-1] = blocks[j-1], blocks[j]
		}
	}
	start, prev := blocks[0], blocks[0]
	for _, b := range blocks[1:] {
		if b == prev { // duplicate
			continue
		}
		if b == prev+1 {
			prev = b
			continue
		}
		dst = append(dst, Range{Off: start * blockSize, Size: (prev - start + 1) * blockSize})
		start, prev = b, b
	}
	return append(dst, Range{Off: start * blockSize, Size: (prev - start + 1) * blockSize})
}
