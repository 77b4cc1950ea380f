package service

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	hetrta "repro"
	"repro/internal/keyhash"
)

// cacheKey is a cache key: byte 0 is the namespace, bytes 1–32 the digest
// of what the entry answers — a graph fingerprint, a taskset fingerprint
// or a task digest. A Service has one analyzer configuration, so no key
// carries it; the store log spells it into its own keys (see storeKey).
type cacheKey [1 + sha256.Size]byte

// Key namespaces. The persisted ones are the store record kinds (see
// persist.go); the three degraded ones are never persisted.
const (
	// degFull holds a full attempt's degraded outcome (exact budget or
	// slice exhausted), so report keys only ever hold non-degraded
	// reports and a later successful analysis upgrades the fingerprint
	// cleanly.
	degFull byte = 4
	// degBreaker and degHard hold the bounds-only results routed around
	// the exact stage by the open breaker and by the hard-instance cache.
	degBreaker byte = 5
	degHard    byte = 6
)

// keyOf returns the key of digest d in namespace ns.
func keyOf(ns byte, d [sha256.Size]byte) cacheKey {
	k := cacheKey{ns}
	copy(k[1:], d[:])
	return k
}

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
	// eval holds a per-task evaluation handle (recEval namespace entries):
	// the platform-independent preparation plus memoized per-platform
	// bounds, shared across every admission that contains the task. Eval
	// entries have no body — they are never served over the wire.
	// evalGraph is the ORIGINAL task graph, which the store tier needs
	// for a loss-free round trip (see persist.go): the handle's own work
	// graph when the reduction removed nothing, so one copy is kept, and
	// the decoded graph otherwise.
	eval      *hetrta.TaskEvalHandle
	evalGraph *hetrta.Graph
	// anchor is the delta-admission anchor of a recAdmit entry; nil on
	// every other entry.
	anchor *admitAnchor
}

// cache is a sharded LRU over cache keys. Sharding keeps the lock a
// request holds while touching recency state private to 1/nth of the key
// space, so concurrent requests for different graphs do not serialize on
// one mutex. A key's 64-bit hash (keyhash.Of) picks its shard.
type cache struct {
	shards []*shard
	mask   uint64
}

type shard struct {
	mu        sync.Mutex
	capacity  int
	items     map[cacheKey]*list.Element
	lru       *list.List // front = most recently used
	evictions atomic.Uint64
}

type lruItem struct {
	key cacheKey
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
			items:    make(map[cacheKey]*list.Element),
			lru:      list.New(),
		}
	}
	return c
}

// shardIndex returns the index of k's shard in c.shards.
func (c *cache) shardIndex(k *cacheKey) int {
	return int(keyhash.Of(k[:]) & c.mask)
}

// get returns the cached entry for k, marking it most recently used.
func (c *cache) get(k cacheKey) (*entry, bool) {
	s := c.shards[c.shardIndex(&k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// add inserts (or refreshes) k, evicting the least recently used entry of
// its shard when the shard is full.
func (c *cache) add(k cacheKey, val *entry) {
	s := c.shards[c.shardIndex(&k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		el.Value.(*lruItem).val = val
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= s.capacity {
		oldest := s.lru.Back()
		if oldest != nil {
			s.lru.Remove(oldest)
			delete(s.items, oldest.Value.(*lruItem).key)
			s.evictions.Add(1)
		}
	}
	s.items[k] = s.lru.PushFront(&lruItem{key: k, val: val})
}

// remove deletes k if present (the degraded-entry upgrade path: a
// successful full analysis invalidates the fingerprint's stale degraded
// results).
func (c *cache) remove(k cacheKey) {
	s := c.shards[c.shardIndex(&k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.lru.Remove(el)
		delete(s.items, k)
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
