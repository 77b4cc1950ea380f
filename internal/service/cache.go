package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	hetrta "repro"
	"repro/internal/keyhash"
)

// entry is one cached outcome: its serialized wire form, marshaled exactly
// once by the request that computed it, plus what the key's namespace
// needs besides. Handing the same byte slice to every subsequent hit is
// what makes repeat responses byte-identical. No entry keeps the report
// it was marshaled from: nothing reads a report after its body is
// marshaled except an analysis entry's degraded reason, kept beside the
// body, and an admission entry's delta anchor.
type entry struct {
	body []byte
	// degraded is an analysis entry's Report.DegradedReason: empty for a
	// full report, the cause for a degraded one.
	degraded string
	// eval holds a per-task evaluation handle ("eval|" namespace entries):
	// the platform-independent preparation plus memoized per-platform
	// bounds, shared across every admission that contains the task. Eval
	// entries have no body — they are never served over the wire.
	// evalGraph is the ORIGINAL task graph, which the store tier needs
	// for a loss-free round trip (see persist.go): the handle's own work
	// graph when the reduction removed nothing, so one copy is kept, and
	// the decoded graph otherwise.
	eval      *hetrta.TaskEvalHandle
	evalGraph *hetrta.Graph
	// anchor is the delta-admission anchor of an "admit|" entry; nil on
	// every other entry.
	anchor *admitAnchor
	// cacheKey, when non-empty, overrides the flight key at insert time: a
	// full attempt that came back degraded publishes normally to its
	// flight's waiters but is cached under the "deg|" namespace, so full
	// keys only ever hold non-degraded reports.
	cacheKey string
}

// storeKey is the key this entry is cached under when its flight ran under
// flightKey.
func (e *entry) storeKey(flightKey string) string {
	if e.cacheKey != "" {
		return e.cacheKey
	}
	return flightKey
}

// cache is a sharded LRU over string keys. Sharding keeps the lock a
// request holds while touching recency state private to 1/nth of the key
// space, so concurrent requests for different graphs do not serialize on
// one mutex. A key's 64-bit hash (keyhash.Of) picks its shard and is its
// slot in the shard's map, and the slot's item keeps the key for the
// comparison: a lookup can hash and compare a key held in parts
// (getFP) without building it. Two keys sharing a hash share a slot, and
// the later insert takes it, so a collision costs a recomputation, never
// another key's entry.
type cache struct {
	shards []*shard
	mask   uint64
}

type shard struct {
	mu        sync.Mutex
	capacity  int
	items     map[uint64]*list.Element
	lru       *list.List // front = most recently used
	evictions atomic.Uint64
}

type lruItem struct {
	key string
	val *entry
}

// newCache builds a cache with the given total entry capacity spread over
// shards (a power of two). Capacity is per shard, at least 1, so the total
// is rounded up to a multiple of the shard count.
func newCache(totalEntries, shards int) *cache {
	per := (totalEntries + shards - 1) / shards
	if per < 1 {
		per = 1
	}
	c := &cache{shards: make([]*shard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		c.shards[i] = &shard{
			capacity: per,
			items:    make(map[uint64]*list.Element),
			lru:      list.New(),
		}
	}
	return c
}

func (c *cache) shardFor(key string) *shard {
	return c.shards[c.shardIndex(key)]
}

// shardIndex returns the index of key's shard in c.shards.
func (c *cache) shardIndex(key string) int {
	return c.shardOf(keyhash.Of(key))
}

// shardOf returns the index in c.shards of the shard of a key with hash h.
func (c *cache) shardOf(h uint64) int {
	return int(h & c.mask)
}

// get returns the cached entry for key, marking it most recently used.
func (c *cache) get(key string) (*entry, bool) {
	return c.getHashed(keyhash.Of(key), func(k string) bool { return k == key })
}

// getFP is get of the key prefix+hex(fp)+"|"+sig (Service.keyOf with no
// prefix, Service.admitKeyOf with admitPrefix), hashing and comparing the
// key in parts so that a hit builds no string.
func (c *cache) getFP(prefix string, fp []byte, sig string) (*entry, bool) {
	h := keyhash.Add(keyhash.AddHex(keyhash.Add(keyhash.Offset, prefix), fp), "|")
	return c.getHashed(keyhash.Add(h, sig), func(k string) bool {
		p, n := len(prefix), 2*len(fp)
		return len(k) == p+n+1+len(sig) && k[:p] == prefix && k[p+n] == '|' && k[p+n+1:] == sig && keyhash.HexEqual(k[p:p+n], fp)
	})
}

// getHashed returns the entry in slot h, marking it most recently used,
// if is accepts the key it was cached under.
func (c *cache) getHashed(h uint64, is func(key string) bool) (*entry, bool) {
	s := c.shards[c.shardOf(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[h]
	if !ok {
		return nil, false
	}
	it := el.Value.(*lruItem)
	if !is(it.key) {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return it.val, true
}

// add inserts (or refreshes) key, evicting the least recently used entry of
// its shard when the shard is full. A different key in key's slot is
// replaced.
func (c *cache) add(key string, val *entry) {
	h := keyhash.Of(key)
	s := c.shards[c.shardOf(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[h]; ok {
		it := el.Value.(*lruItem)
		it.key, it.val = key, val
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= s.capacity {
		oldest := s.lru.Back()
		if oldest != nil {
			s.lru.Remove(oldest)
			delete(s.items, keyhash.Of(oldest.Value.(*lruItem).key))
			s.evictions.Add(1)
		}
	}
	s.items[h] = s.lru.PushFront(&lruItem{key: key, val: val})
}

// remove deletes key if present (the degraded-entry upgrade path: a
// successful full analysis invalidates the fingerprint's stale degraded
// results).
func (c *cache) remove(key string) {
	h := keyhash.Of(key)
	s := c.shards[c.shardOf(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[h]; ok && el.Value.(*lruItem).key == key {
		s.lru.Remove(el)
		delete(s.items, h)
	}
}

// len returns the number of cached entries across all shards.
func (c *cache) len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}

// capacity returns the total entry capacity across all shards.
func (c *cache) capacity() int {
	total := 0
	for _, s := range c.shards {
		total += s.capacity
	}
	return total
}

// shardLens returns the per-shard occupancy, in shard order.
func (c *cache) shardLens() []int {
	out := make([]int, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = s.lru.Len()
		s.mu.Unlock()
	}
	return out
}

// evicted returns the total evictions across all shards.
func (c *cache) evicted() uint64 {
	var total uint64
	for _, s := range c.shards {
		total += s.evictions.Load()
	}
	return total
}
