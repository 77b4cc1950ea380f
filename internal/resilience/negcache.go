package resilience

import (
	"container/list"
	"sync"
)

// NegCacheOptions configure a NegCache.
type NegCacheOptions struct {
	// Capacity bounds the number of remembered hard instances (LRU
	// eviction beyond it); <= 0 means DefaultNegCacheCapacity.
	Capacity int
	// ProbeEvery is how many ShouldSkip hits on one entry pass between
	// full-analysis probes (the probing lookup returns false, letting the
	// caller retry the expensive path and upgrade the entry on success).
	// 0 means DefaultNegProbeEvery; negative disables probing (a hard
	// instance stays hard until Remove).
	ProbeEvery int64
}

// Defaults for NegCacheOptions zero values.
const (
	DefaultNegCacheCapacity = 1024
	DefaultNegProbeEvery    = 64
)

// NegCache is the per-fingerprint negative cache of hard instances: graphs
// whose exact analysis exhausted its budget or deadline slice, keyed by
// their 32-byte fingerprint. A
// remembered fingerprint skips the exact stage immediately on subsequent
// requests — overload from repeated hopeless work never builds up — while
// the counter-based probe interval periodically re-attempts the full
// analysis so entries can be upgraded when capacity returns. A nil
// *NegCache is valid and remembers nothing.
type NegCache struct {
	mu         sync.Mutex
	capacity   int
	probeEvery int64
	items      map[[32]byte]*list.Element
	lru        *list.List // front = most recently confirmed hard

	added     uint64
	removed   uint64
	probes    uint64
	evictions uint64
}

// negItem is one remembered hard instance; hits counts ShouldSkip lookups
// since it was (re-)added, driving the probe cadence.
type negItem struct {
	key  [32]byte
	hits int64
}

// NewNegCache builds a negative cache from opts.
func NewNegCache(opts NegCacheOptions) *NegCache {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultNegCacheCapacity
	}
	probeEvery := opts.ProbeEvery
	if probeEvery == 0 {
		probeEvery = DefaultNegProbeEvery
	}
	return &NegCache{
		capacity:   capacity,
		probeEvery: probeEvery,
		items:      make(map[[32]byte]*list.Element),
		lru:        list.New(),
	}
}

// Add remembers key as a hard instance (refreshing recency and resetting
// its probe counter if already present).
func (c *NegCache) Add(key [32]byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*negItem).hits = 0
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.capacity {
		if oldest := c.lru.Back(); oldest != nil {
			c.lru.Remove(oldest)
			delete(c.items, oldest.Value.(*negItem).key)
			c.evictions++
		}
	}
	c.items[key] = c.lru.PushFront(&negItem{key: key})
	c.added++
}

// Remove forgets key (a full analysis succeeded: the instance is upgraded).
// It reports whether the key was present.
func (c *NegCache) Remove(key [32]byte) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.lru.Remove(el)
	delete(c.items, key)
	c.removed++
	return true
}

// ShouldSkip reports whether key is a known-hard instance whose exact
// stage should be skipped right now. Every ProbeEvery-th lookup of a
// present key answers false instead — a deterministic probe that lets the
// caller re-attempt the full analysis (and Remove the entry on success).
func (c *NegCache) ShouldSkip(key [32]byte) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	it := el.Value.(*negItem)
	it.hits++
	c.lru.MoveToFront(el)
	if c.probeEvery > 0 && it.hits%c.probeEvery == 0 {
		c.probes++
		return false
	}
	return true
}

// Len returns the number of remembered hard instances.
func (c *NegCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// NegCacheStats is a point-in-time snapshot of the negative cache.
type NegCacheStats struct {
	// Entries is the current occupancy; Capacity its bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
	// Added / Removed / Probes / Evictions count entry lifecycle events
	// (Removed is upgrades via full-analysis success).
	Added     uint64 `json:"added"`
	Removed   uint64 `json:"removed"`
	Probes    uint64 `json:"probes"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns a snapshot of the cache counters. Nil-safe.
func (c *NegCache) Stats() NegCacheStats {
	if c == nil {
		return NegCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return NegCacheStats{
		Entries:   c.lru.Len(),
		Capacity:  c.capacity,
		Added:     c.added,
		Removed:   c.removed,
		Probes:    c.probes,
		Evictions: c.evictions,
	}
}
