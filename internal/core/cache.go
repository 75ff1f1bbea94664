package core

// writeCache is the DRAM cache of one vSSD instance that absorbs writes
// during GC (§3.5.1: "We avoid long tail latencies for writes by
// utilizing existing DRAM caches ... writes are considered complete when
// all replicas have a DRAM copy and are flushed in the background").
// Each instance owns its cache, so pages are named by LPN alone.
//
// Rewriting a page that is already dirty is absorbed in place and costs no
// new slot, so hot keys never back-pressure the client.
type writeCache struct {
	capacity int
	// dirty flags the dirty pages by LPN, grown to the highest LPN
	// inserted; ndirty counts the set flags.
	dirty  []bool
	ndirty int
	// fifo[head:] is the flush order; it may contain entries whose page
	// is no longer dirty, which NextFlush skips.
	fifo []uint32
	head int
	// flushing counts pages popped for flush whose flash program has not
	// completed: they still occupy DRAM, so they count against capacity.
	flushing int
	inserted int64
	absorbed int64
}

func newWriteCache(capacity int) *writeCache {
	if capacity < 1 {
		capacity = 1
	}
	return &writeCache{capacity: capacity}
}

// Full reports whether a new (non-absorbed) insert would exceed capacity.
func (c *writeCache) Full() bool { return c.ndirty+c.flushing >= c.capacity }

// Len returns the number of dirty pages.
func (c *writeCache) Len() int { return c.ndirty }

// Contains reports whether the page is dirty (a cache read hit).
func (c *writeCache) Contains(lpn uint32) bool {
	return int(lpn) < len(c.dirty) && c.dirty[lpn]
}

// Insert adds a dirty page. It returns false when the cache is full and
// the write must wait for flush back-pressure; rewrites of already-dirty
// pages always succeed.
func (c *writeCache) Insert(lpn uint32) bool {
	if c.Contains(lpn) {
		c.absorbed++
		return true
	}
	if c.Full() {
		return false
	}
	if int(lpn) >= len(c.dirty) {
		size := max(int(lpn)+1, 2*len(c.dirty))
		c.dirty = append(c.dirty, make([]bool, size-len(c.dirty))...)
	}
	c.dirty[lpn] = true
	c.ndirty++
	if len(c.fifo) == cap(c.fifo) && c.head >= len(c.fifo)/2 {
		// Reuse the popped prefix instead of growing: the live entries
		// move to the front, so the FIFO stays within twice its peak.
		n := copy(c.fifo, c.fifo[c.head:])
		c.fifo, c.head = c.fifo[:n], 0
	}
	c.fifo = append(c.fifo, lpn)
	c.inserted++
	return true
}

// NextFlush pops the oldest dirty page for background flushing, skipping
// entries that were re-absorbed and already flushed. The page keeps
// occupying DRAM until FlushDone.
func (c *writeCache) NextFlush() (lpn uint32, ok bool) {
	for c.head < len(c.fifo) {
		lpn := c.fifo[c.head]
		c.head++
		if c.dirty[lpn] {
			c.dirty[lpn] = false
			c.ndirty--
			c.flushing++
			return lpn, true
		}
	}
	return 0, false
}

// FlushDone releases the DRAM slot of a completed flush.
func (c *writeCache) FlushDone() {
	if c.flushing > 0 {
		c.flushing--
	}
}

// Stats returns insert and absorb counters.
func (c *writeCache) Stats() (inserted, absorbed int64) { return c.inserted, c.absorbed }
