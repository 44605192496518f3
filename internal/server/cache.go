package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// lru is a bounded least-recently-used cache from content address to
// result payload. Values are treated as immutable by the cache;
// callers that hand out mutable results (flow reports) clone on the
// way in and on the way out.
type lru struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
	// evicted counts capacity evictions since startup (surfaced by
	// /metrics as vpgad_cache_evictions_total).
	evicted atomic.Int64
}

type lruEntry struct {
	key string
	val any
}

func newLRU(max int) *lru {
	if max < 1 {
		max = 1
	}
	return &lru{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the cached value and refreshes its recency.
func (c *lru) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry when the cache is over capacity.
func (c *lru) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry).key)
		c.evicted.Add(1)
	}
}

// remove drops the key's entry, if any.
func (c *lru) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
		delete(c.m, key)
	}
}

// evictions reports capacity evictions since startup.
func (c *lru) evictions() int64 {
	return c.evicted.Load()
}

// len reports the live entry count.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
