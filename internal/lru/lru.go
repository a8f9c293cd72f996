// Package lru is the LRU behind the mapping store's memory tier. It is
// deliberately minimal: a recency list plus an index, no locking — the
// caller serializes access under its own mutex and layers its own
// semantics (counters, the disk tier) on top.
package lru

import "container/list"

// Cache is a bounded map with least-recently-used eviction. Not safe
// for concurrent use; guard it with the owning cache's lock.
type Cache[K comparable, V any] struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
}

type node[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache bounded to capacity entries (capacity < 1 panics:
// an unbounded "LRU" is a bug at the call site).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		panic("lru: non-positive capacity")
	}
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value under k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*node[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores v under k — refreshing in place if the key is resident —
// and evicts from the LRU tail past capacity, returning how many
// entries were evicted (0 or 1 in steady state).
func (c *Cache[K, V]) Put(k K, v V) (evicted int) {
	if el, ok := c.items[k]; ok {
		el.Value.(*node[K, V]).val = v
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[k] = c.ll.PushFront(&node[K, V]{key: k, val: v})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*node[K, V]).key)
		evicted++
	}
	return evicted
}

// Len returns the resident entry count.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Reset empties the cache, keeping its capacity.
func (c *Cache[K, V]) Reset() {
	c.ll = list.New()
	c.items = make(map[K]*list.Element)
}
