package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	hetrta "repro"
)

// entry is one cached outcome: its serialized wire form, marshaled exactly
// once by the request that computed it, plus what the key's namespace
// needs besides. Handing the same byte slice to every subsequent hit is
// what makes repeat responses byte-identical. Analysis entries keep the
// JSON-visible Report; admission entries keep no AdmitReport, only the
// delta anchor, since nothing reads the report after its body is
// marshaled.
type entry struct {
	report *hetrta.Report
	body   []byte
	// eval holds a per-task evaluation handle ("eval|" namespace entries):
	// the platform-independent preparation plus memoized per-platform
	// bounds, shared across every admission that contains the task. Eval
	// entries have no body — they are never served over the wire.
	// evalGraph retains the ORIGINAL task graph alongside it: the handle
	// only keeps the reduced work graph, and the store tier needs the
	// source graph for a loss-free round trip (see persist.go).
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

// admitAnchor is what AdmitDelta needs of a resident admission: base is
// the taskset behind the entry, which the delta is applied to. digests and
// handles are parallel to base.Tasks. digests lets the delta path resolve
// removals and derive the resulting fingerprint without re-hashing the
// base. handles holds each task's eval handle, so surviving tasks skip the
// string-keyed eval cache; a nil slot is re-prepared through taskEval.
// Written only before the entry is published; read-only after.
type admitAnchor struct {
	base    hetrta.Taskset
	digests []hetrta.TaskDigest
	handles []*hetrta.TaskEvalHandle
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
// one mutex.
type cache struct {
	shards []*shard
	mask   uint64
}

type shard struct {
	mu        sync.Mutex
	capacity  int
	items     map[string]*list.Element
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
			items:    make(map[string]*list.Element),
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
	return int(fnvString(key) & c.mask)
}

func fnvString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// get returns the cached entry for key, marking it most recently used.
func (c *cache) get(key string) (*entry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

// add inserts (or refreshes) key, evicting the least recently used entry of
// its shard when the shard is full.
func (c *cache) add(key string, val *entry) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
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
	s.items[key] = s.lru.PushFront(&lruItem{key: key, val: val})
}

// remove deletes key if present (the degraded-entry upgrade path: a
// successful full analysis invalidates the fingerprint's stale degraded
// results).
func (c *cache) remove(key string) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.lru.Remove(el)
		delete(s.items, key)
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
