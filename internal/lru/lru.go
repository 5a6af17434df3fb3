// Package lru provides a small, concurrency-safe, bounded
// least-recently-used cache keyed by string: the structure under the
// engine's plan cache (internal/sqldb), which keeps its own semantic
// hit/miss accounting and epoch checks on top.
package lru

import (
	"container/list"
	"sync"
)

type entry[V any] struct {
	key string
	val V
}

// Cache is a bounded LRU map. A capacity of zero (or less) disables the
// cache entirely: Put is a no-op and Get always misses. All methods are
// safe for concurrent use.
type Cache[V any] struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[string]*list.Element
	evictions uint64
}

// New creates a cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		order:    list.New(),
		items:    map[string]*list.Element{},
	}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts or replaces the value for key, evicting the least recently
// used entry when the cache is full.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.capacity {
		c.evictOldest()
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: val})
}

// evictOldest removes the back element. Caller holds the lock.
func (c *Cache[V]) evictOldest() {
	el := c.order.Back()
	c.order.Remove(el)
	delete(c.items, el.Value.(*entry[V]).key)
	c.evictions++
}

// Remove deletes key if present. A removal is not counted as an
// eviction (evictions measure capacity pressure, not invalidation).
func (c *Cache[V]) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cap returns the configured capacity.
func (c *Cache[V]) Cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// Evictions returns the number of capacity evictions so far.
func (c *Cache[V]) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
