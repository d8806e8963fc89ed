package dbms

import "time"

// pageKey identifies a page globally: database id in the high bits, page
// number in the low bits.
type pageKey uint64

func makeKey(dbID int, page int64) pageKey {
	return pageKey(uint64(dbID)<<40 | uint64(page)&(1<<40-1))
}

func (k pageKey) dbID() int { return int(k >> 40) }

// frame is one buffer-pool slot, linked into an LRU list.
type frame struct {
	key   pageKey
	dirty bool
	// dirtyAt is the simulation clock when the page became dirty, and
	// dirtyLSN the log position — together they drive the flusher's time
	// and checkpoint-age (InnoDB-style) pressure. Both stay fixed while
	// the page remains dirty, even if it absorbs further updates: that is
	// what lets hot pages coalesce many updates into one write.
	dirtyAt    time.Duration
	dirtyLSN   int64
	prev, next *frame
}

// dirtyRec is a flush-list entry. Records are appended in clean→dirty
// transition order, so the list is sorted by both dirtyAt and dirtyLSN.
// Entries can go stale (page cleaned by eviction or re-dirtied later);
// stale entries are skipped lazily.
type dirtyRec struct {
	key pageKey
	lsn int64
}

// lruCache is a strict-LRU page cache with an InnoDB-style flush list. It
// is the core mechanism behind buffer-pool gauging: inserting probe pages
// at the MRU end pushes the coldest real pages out, and re-reads of evicted
// pages show up as misses.
type lruCache struct {
	capPages int
	table    map[pageKey]*frame
	head     *frame // most recently used
	tail     *frame // least recently used
	dirty    int

	// Flush list: FIFO of clean→dirty transitions.
	fifo     []dirtyRec
	fifoHead int

	// touchedMax tracks the high-water mark of resident pages — the
	// "allocated" memory an OS would report for the process.
	touchedMax int
}

func newLRUCache(capPages int) *lruCache {
	return &lruCache{
		capPages: capPages,
		table:    make(map[pageKey]*frame, capPages),
	}
}

// Len returns the number of resident pages.
func (c *lruCache) Len() int { return len(c.table) }

// Dirty returns the number of dirty resident pages.
func (c *lruCache) Dirty() int { return c.dirty }

// TouchedMax returns the high-water mark of resident pages.
func (c *lruCache) TouchedMax() int { return c.touchedMax }

// unlink removes f from the LRU list.
func (c *lruCache) unlink(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		c.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		c.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

// pushFront makes f the most recently used frame.
func (c *lruCache) pushFront(f *frame) {
	f.prev = nil
	f.next = c.head
	if c.head != nil {
		c.head.prev = f
	}
	c.head = f
	if c.tail == nil {
		c.tail = f
	}
}

// Get looks up a page and, on a hit, promotes it to MRU.
func (c *lruCache) Get(key pageKey) bool {
	f, ok := c.table[key]
	if !ok {
		return false
	}
	if c.head != f {
		c.unlink(f)
		c.pushFront(f)
	}
	return true
}

// Contains reports residency without promoting.
func (c *lruCache) Contains(key pageKey) bool {
	_, ok := c.table[key]
	return ok
}

// evicted describes a page pushed out by an insertion.
type evicted struct {
	key   pageKey
	dirty bool
}

// Put inserts a page at the MRU end, evicting the LRU page if the cache is
// full. It returns the evicted page, if any. Inserting an already-resident
// page just promotes it.
func (c *lruCache) Put(key pageKey) (evicted, bool) {
	if c.Get(key) {
		return evicted{}, false
	}
	var out evicted
	var have bool
	if c.capPages > 0 && len(c.table) >= c.capPages {
		victim := c.tail
		c.unlink(victim)
		delete(c.table, victim.key)
		if victim.dirty {
			c.dirty--
		}
		out = evicted{key: victim.key, dirty: victim.dirty}
		have = true
	}
	f := &frame{key: key}
	c.table[key] = f
	c.pushFront(f)
	if len(c.table) > c.touchedMax {
		c.touchedMax = len(c.table)
	}
	return out, have
}

// MarkDirty flags a resident page as dirty at the given clock and log
// position; it reports whether the page was clean before (i.e. whether this
// created new write-back work). Re-dirtying keeps the original stamps.
func (c *lruCache) MarkDirty(key pageKey, now time.Duration, lsn int64) bool {
	f, ok := c.table[key]
	if !ok || f.dirty {
		return false
	}
	f.dirty = true
	f.dirtyAt = now
	f.dirtyLSN = lsn
	c.dirty++
	c.fifo = append(c.fifo, dirtyRec{key: key, lsn: lsn})
	return true
}

// Clean clears the dirty flag of a page if it is still resident. Its flush
// list entry, if still present, goes stale and is skipped lazily.
func (c *lruCache) Clean(key pageKey) {
	if f, ok := c.table[key]; ok && f.dirty {
		f.dirty = false
		c.dirty--
	}
}

// Requeue re-appends a still-dirty page to the flush list with its original
// stamps. The flusher uses it when the disk accepted only part of a batch.
func (c *lruCache) Requeue(key pageKey) {
	if f, ok := c.table[key]; ok && f.dirty {
		c.fifo = append(c.fifo, dirtyRec{key: key, lsn: f.dirtyLSN})
	}
}

// Drop removes a page regardless of its state.
func (c *lruCache) Drop(key pageKey) {
	f, ok := c.table[key]
	if !ok {
		return
	}
	c.unlink(f)
	delete(c.table, key)
	if f.dirty {
		c.dirty--
	}
}

// CollectDirtyOlder pops up to n dirty pages whose clean→dirty transition
// happened at or before either cutoff (log position or clock), oldest
// first. Pass maxInt64 cutoffs to collect the oldest dirty pages
// unconditionally. Collected pages are expected to be flushed (Clean) or
// re-queued (Requeue) by the caller.
func (c *lruCache) CollectDirtyOlder(cutoffLSN int64, cutoffAt time.Duration, n int) []pageKey {
	if n <= 0 {
		return nil
	}
	var out []pageKey
	for c.fifoHead < len(c.fifo) && len(out) < n {
		rec := c.fifo[c.fifoHead]
		f, ok := c.table[rec.key]
		if !ok || !f.dirty || f.dirtyLSN != rec.lsn {
			// Stale: cleaned, evicted, or re-dirtied later.
			c.fifoHead++
			continue
		}
		if rec.lsn > cutoffLSN && f.dirtyAt > cutoffAt {
			break
		}
		out = append(out, rec.key)
		c.fifoHead++
	}
	c.compactFIFO()
	return out
}

// CollectDirty pops up to n of the oldest dirty pages regardless of age.
func (c *lruCache) CollectDirty(n int) []pageKey {
	return c.CollectDirtyOlder(int64(1)<<62, time.Duration(1)<<62, n)
}

// OldestDirtyLSN returns the log position of the oldest dirty page and
// whether any dirty page exists — the checkpoint-age measure.
func (c *lruCache) OldestDirtyLSN() (int64, bool) {
	for c.fifoHead < len(c.fifo) {
		rec := c.fifo[c.fifoHead]
		f, ok := c.table[rec.key]
		if !ok || !f.dirty || f.dirtyLSN != rec.lsn {
			c.fifoHead++
			continue
		}
		return rec.lsn, true
	}
	c.compactFIFO()
	return 0, false
}

// compactFIFO reclaims consumed flush-list prefix space.
func (c *lruCache) compactFIFO() {
	if c.fifoHead > 4096 && c.fifoHead*2 > len(c.fifo) {
		c.fifo = append([]dirtyRec(nil), c.fifo[c.fifoHead:]...)
		c.fifoHead = 0
	}
}

// DropDB removes every page belonging to the given database.
func (c *lruCache) DropDB(dbID int) {
	for key := range c.table {
		if key.dbID() == dbID {
			c.Drop(key)
		}
	}
}
