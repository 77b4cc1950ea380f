package exact

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// memo is the dominance store, sharded by hashed state mask the way
// internal/service shards its report cache: each shard owns a mutex, a
// mask → record-chain map and a flat signature arena, and a single atomic
// counter enforces MemoLimit globally across shards. States with equal
// masks always land in the same shard, so the check-then-insert in
// dominated stays atomic — two workers reaching states with equal
// signatures can never both insert and both prune (which would silently
// drop a subtree).
type memo struct {
	shards []memoShard
	mask   uint64
	// entries counts records across all shards; insertion reserves a slot
	// first and backs out over the limit, so the cap holds exactly under
	// concurrency. Lookups continue after the cap, insertions stop.
	entries atomic.Int64
	limit   int64
}

// memoShard stores its records back to back in arena: each record is the
// arena offset of the next record with the same mask (-1 ends the chain)
// followed by the signature. A signature's length depends only on the mask
// (the machine count, the scheduled nodes with unscheduled successors, and
// the makespan), so the chain needs no per-record length. m maps a mask to
// its chain's first and last record; records chain in insertion order.
type memoShard struct {
	mu    sync.Mutex
	m     map[uint64]memoChain
	arena []int64
}

type memoChain struct{ head, tail int }

// memoShardCount picks the shard count: one shard at Parallelism ≤ 1 (the
// serial search keeps its lock uncontended and its insertion order — and
// therefore its pruning decisions — exactly as before), a few shards per
// worker beyond that.
func memoShardCount(workers int) int {
	if workers <= 1 {
		return 1
	}
	n := 1 << bits.Len(uint(4*workers-1)) // next power of two ≥ 4·workers
	if n > 256 {
		n = 256
	}
	return n
}

func newMemo(limit int64, shards int) *memo {
	mm := &memo{shards: make([]memoShard, shards), mask: uint64(shards - 1), limit: limit}
	for i := range mm.shards {
		mm.shards[i].m = make(map[uint64]memoChain)
	}
	return mm
}

// serialMemos recycles the single-shard memo of Parallelism ≤ 1 searches,
// so a search reuses the map buckets and arena an earlier one grew.
var serialMemos = sync.Pool{New: func() any { return newMemo(0, 1) }}

// Retention caps for a pooled memo: a search that grew its arena or map
// past them (far beyond what a 10k-expansion budget needs) frees them
// instead of pinning them in the pool.
const (
	maxPooledArena = 1 << 18 // int64 words, 2 MiB
	maxPooledMasks = 1 << 14
)

func getSerialMemo(limit int64) *memo {
	mm := serialMemos.Get().(*memo)
	mm.limit = limit
	return mm
}

// putSerialMemo clears mm and returns it to the pool; it must only be
// called once the search using it has finished.
func putSerialMemo(mm *memo) {
	s := &mm.shards[0]
	if len(s.m) > maxPooledMasks {
		s.m = make(map[uint64]memoChain)
	} else {
		clear(s.m)
	}
	if cap(s.arena) > maxPooledArena {
		s.arena = nil
	} else {
		s.arena = s.arena[:0]
	}
	mm.entries.Store(0)
	serialMemos.Put(mm)
}

// mix64 is the splitmix64 finalizer: state masks are dense in the low bits,
// so shard selection needs a real avalanche, not a modulo.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// dominated checks and updates the memo; it reports whether the state
// (mask, sig) is dominated by a previously seen state with the same mask.
// sig may live in caller scratch — it is copied on insertion.
//
//hetrta:hotpath
func (mm *memo) dominated(mask uint64, sig []int64) bool {
	s := &mm.shards[mix64(mask)&mm.mask]
	s.mu.Lock()
	ch, seen := s.m[mask]
	if seen {
		for at := ch.head; at >= 0; at = int(s.arena[at]) {
			old := s.arena[at+1 : at+1+len(sig)]
			dom := true
			for i, o := range old {
				if o > sig[i] {
					dom = false
					break
				}
			}
			if dom {
				s.mu.Unlock()
				return true
			}
		}
	}
	if mm.entries.Add(1) <= mm.limit {
		at := len(s.arena)
		//lint:alloc arena growth: amortized doubling, and a pooled serial memo starts at the capacity an earlier search grew
		s.arena = append(append(s.arena, -1), sig...)
		if seen {
			s.arena[ch.tail] = int64(at)
			ch.tail = at
		} else {
			ch = memoChain{head: at, tail: at}
		}
		s.m[mask] = ch
	} else {
		mm.entries.Add(-1)
	}
	s.mu.Unlock()
	return false
}
