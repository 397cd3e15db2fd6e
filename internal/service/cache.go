package service

import (
	"container/list"
	"sync"
)

// cached is one memoized verdict: the encoded report document plus the
// metadata the response envelope repeats. Entries are immutable once
// stored, so concurrent readers share them without copying.
type cached struct {
	digest string
	report []byte
	clean  bool
}

// cost is the entry's accounting size for the byte bound: the payload
// bytes plus the envelope strings and a fixed overhead for the list and
// map machinery. An approximation, but a monotone one — a bigger report
// always costs more.
func (c *cached) cost(key string) int64 {
	const entryOverhead = 128
	return int64(len(c.report)) + int64(len(c.digest)) + int64(len(key)) + entryOverhead
}

// resultCache is an LRU keyed by digest × detector × spec, bounded by
// total resident bytes (the RAM that actually matters when verdict
// documents vary from hundreds of bytes to megabytes) and secondarily by
// entry count. With a disk store configured the cache is a read-through
// layer: an eviction costs one store read, not one analysis. The digest
// is a SHA-256 of the trace content (or a synthetic program identity),
// so a hit is a proof the same analysis already ran — the whole point of
// the paper's record-once/analyze-many workflow served hot.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	maxEnts  int
	bytes    int64
	ll       *list.List // front = most recent
	m        map[string]*list.Element
}

type cacheItem struct {
	key  string
	val  *cached
	cost int64
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	if maxBytes < 1 {
		maxBytes = 64 << 20
	}
	return &resultCache{
		maxBytes: maxBytes,
		maxEnts:  maxEntries,
		ll:       list.New(),
		m:        make(map[string]*list.Element),
	}
}

// get returns the entry for key and refreshes its recency.
func (c *resultCache) get(key string) (*cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// put stores the entry, evicting least-recently-used entries until both
// the byte and entry bounds hold. An entry larger than the whole byte
// budget is not admitted at all (it would evict everything and then be
// evicted by its successor — pure churn).
func (c *resultCache) put(key string, val *cached) {
	cost := val.cost(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxBytes {
		return
	}
	if el, ok := c.m[key]; ok {
		item := el.Value.(*cacheItem)
		c.bytes += cost - item.cost
		item.val, item.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(&cacheItem{key: key, val: val, cost: cost})
		c.bytes += cost
	}
	for (c.bytes > c.maxBytes || c.ll.Len() > c.maxEnts) && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		item := oldest.Value.(*cacheItem)
		c.ll.Remove(oldest)
		delete(c.m, item.key)
		c.bytes -= item.cost
	}
}

// len reports the resident entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// size reports the resident bytes (the raderd_cache_bytes gauge).
func (c *resultCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
