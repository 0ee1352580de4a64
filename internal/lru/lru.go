// Package lru is the one cache implementation in the tree: a string-keyed,
// fixed-capacity, least-recently-used map whose contents belong to a
// generation — the lifetime of the model bundle that produced the values.
// The serving engine's result caches, the scan verdict stores and the tier
// router's fleet-wide store are all this type.
package lru

import "sync"

// Cache is safe for concurrent use.
type Cache[V any] struct {
	mu  sync.Mutex
	cap int // > 0: entry bound; 0: unbounded; < 0: holds nothing
	gen uint64
	idx map[string]int
	// ents[1:] are the resident entries, linked by index into a recency
	// ring through the sentinel ents[0]: ents[0].next is the most,
	// ents[0].prev the least recently used. No node is allocated per entry.
	ents []entry[V]
}

type entry[V any] struct {
	key        string
	val        V
	prev, next int
}

// New returns an empty cache at generation 0 holding at most capacity
// entries. Capacity 0 means no bound; a negative capacity makes a cache
// that stores nothing. Memory grows with the resident set, not with the
// capacity.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, idx: make(map[string]int), ents: make([]entry[V], 1)}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.idx[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(i)
	c.linkFront(i)
	return c.ents[i].val, true
}

// Put stores val under key in the current generation.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, val)
}

// PutAt stores val under key if gen — the generation the caller read with
// Gen before it started computing val — is still current, and drops val
// otherwise: nothing a swapped-out bundle computed outlives the Roll.
func (c *Cache[V]) PutAt(gen uint64, key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen == c.gen {
		c.put(key, val)
	}
}

// put inserts or refreshes an entry as most recently used; at capacity the
// least recently used entry's slot is reused for it.
func (c *Cache[V]) put(key string, val V) {
	i, ok := c.idx[key]
	switch {
	case ok:
		c.unlink(i)
	case c.cap < 0:
		return
	case c.cap > 0 && len(c.ents) > c.cap:
		i = c.ents[0].prev
		c.unlink(i)
		delete(c.idx, c.ents[i].key)
	default:
		i = len(c.ents)
		c.ents = append(c.ents, entry[V]{})
	}
	c.ents[i].key, c.ents[i].val = key, val
	c.idx[key] = i
	c.linkFront(i)
}

func (c *Cache[V]) unlink(i int) {
	e := c.ents[i]
	c.ents[e.prev].next, c.ents[e.next].prev = e.next, e.prev
}

func (c *Cache[V]) linkFront(i int) {
	head := c.ents[0].next
	c.ents[i].prev, c.ents[i].next = 0, head
	c.ents[head].prev, c.ents[0].next = i, i
}

// Gen reports the current generation.
func (c *Cache[V]) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Roll drops every entry, releasing the values, and starts the next
// generation, which it returns.
func (c *Cache[V]) Roll() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	clear(c.idx)
	clear(c.ents)
	c.ents = c.ents[:1]
	return c.gen
}

// Len reports the resident entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ents) - 1
}

// Range calls f for every resident entry, most recently used first,
// without marking any as used. f runs under the cache's lock and must not
// call back into the cache.
func (c *Cache[V]) Range(f func(key string, val V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := c.ents[0].next; i != 0; i = c.ents[i].next {
		f(c.ents[i].key, c.ents[i].val)
	}
}
