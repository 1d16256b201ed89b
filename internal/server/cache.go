package server

import (
	"container/list"
	"sync"

	"tpa/internal/sparse"
)

// topkCache is a bounded LRU of top-k answers keyed by (seed, k). The engine
// is immutable for the life of the process, so entries never need
// invalidation; the bound only caps memory. On skewed real-world traffic
// (the scale-free seed distributions TPA targets) a small cache absorbs the
// hot head of the seed popularity curve.
//
// The bound is in slots of defaultK ranked entries, not in answers: an
// answer costs ⌈len/defaultK⌉ slots (at least 1), so a client asking for
// huge k cannot pin capacity × n entries. An answer costing more than the
// whole capacity is not cached.
type topkCache struct {
	mu    sync.Mutex
	cap   int        // in slots
	used  int        // slots held by the cached answers
	ll    *list.List // front = most recently used
	byKey map[cacheKey]*list.Element

	hits   int64
	misses int64
}

type cacheKey struct{ seed, k int }

type cacheItem struct {
	key cacheKey
	top []sparse.Entry
}

func newTopkCache(capacity int) *topkCache {
	return &topkCache{cap: capacity, ll: list.New(), byKey: make(map[cacheKey]*list.Element)}
}

// Get returns the cached answer for (seed, k) and marks it most recently
// used. The returned slice is shared; callers must not modify it.
func (c *topkCache) Get(seed, k int) ([]sparse.Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[cacheKey{seed, k}]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheItem).top, true
	}
	c.misses++
	return nil, false
}

// Put stores an answer for (seed, k), evicting least recently used answers
// until the cached answers fit the capacity again.
func (c *topkCache) Put(seed, k int, top []sparse.Entry) {
	cost := slots(top)
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.cap {
		return
	}
	key := cacheKey{seed, k}
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		item := el.Value.(*cacheItem)
		c.used += cost - slots(item.top)
		item.top = top
	} else {
		c.byKey[key] = c.ll.PushFront(&cacheItem{key: key, top: top})
		c.used += cost
	}
	for c.used > c.cap {
		last := c.ll.Back()
		item := c.ll.Remove(last).(*cacheItem)
		delete(c.byKey, item.key)
		c.used -= slots(item.top)
	}
}

// slots is what an answer costs against the capacity: one slot per
// defaultK ranked entries, rounded up, and at least one.
func slots(top []sparse.Entry) int {
	return max(1, (len(top)+defaultK-1)/defaultK)
}

// counts returns the raw counters for the /metrics exposition.
func (c *topkCache) counts() (hits, misses int64, entries, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.used, c.cap
}

// snapshot reports cache occupancy and hit-rate counters for /stats.
func (c *topkCache) snapshot() map[string]interface{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	rate := 0.0
	if total > 0 {
		rate = float64(c.hits) / float64(total)
	}
	return map[string]interface{}{
		"enabled":  true,
		"entries":  c.used,
		"capacity": c.cap,
		"hits":     c.hits,
		"misses":   c.misses,
		"hit_rate": rate,
	}
}
