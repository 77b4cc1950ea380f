package exact

import (
	"math"
	"sync"
)

// memo is the dominance store. It keeps its records back to back in
// arena: each record is the arena offset of the next record with the same
// mask (-1 ends the chain), then the signature's saturating sum (sigSum),
// then the signature. A signature's length depends only on the mask (the
// machine count, the scheduled nodes with unscheduled successors, and the
// makespan), so the chain needs no per-record length. m maps a mask to the
// index of its chain in chains, which holds each chain's first record;
// records chain in ascending order of sum, later records after earlier
// ones of equal sum. Changing a chain's head updates the chains entry in
// place, so only a mask's first record writes the map.
//
// A memo has one owner, the search that took it from the pool; it is not
// safe for concurrent use.
type memo struct {
	m      map[uint64]int
	chains []int
	arena  []int64
	// entries counts the records; once it reaches limit, lookups continue
	// and insertions stop.
	entries int64
	limit   int64
}

func newMemo(limit int64) *memo {
	return &memo{m: make(map[uint64]int), limit: limit}
}

// memos recycles memos between searches, so a search reuses the map
// buckets, chains and arena an earlier one grew.
var memos = sync.Pool{New: func() any { return newMemo(0) }}

// Retention caps for a pooled memo: a search that grew its arena or map
// past them (far beyond what a 10k-expansion budget needs) frees them
// instead of pinning them in the pool.
const (
	maxPooledArena = 1 << 18 // int64 words, 2 MiB
	maxPooledMasks = 1 << 14
)

func getMemo(limit int64) *memo {
	mm := memos.Get().(*memo)
	mm.limit = limit
	return mm
}

// putMemo clears mm and returns it to the pool; it must only be called
// once the search using it has finished.
func putMemo(mm *memo) {
	if len(mm.m) > maxPooledMasks {
		mm.m = make(map[uint64]int)
		mm.chains = nil
	} else {
		clear(mm.m)
		mm.chains = mm.chains[:0]
	}
	if cap(mm.arena) > maxPooledArena {
		mm.arena = nil
	} else {
		mm.arena = mm.arena[:0]
	}
	mm.entries = 0
	memos.Put(mm)
}

// sigSum is the saturating sum of sig. Saturating addition is monotone in
// each argument, so a signature that dominates sig component-wise never
// has a larger sum, whatever the magnitudes of the components.
func sigSum(sig []int64) int64 {
	var sum int64
	for _, x := range sig {
		t := sum + x
		switch {
		case x > 0 && t < sum:
			t = math.MaxInt64
		case x < 0 && t > sum:
			t = math.MinInt64
		}
		sum = t
	}
	return sum
}

// dominated checks and updates the memo; it reports whether the state
// (mask, sig) is dominated by a previously seen state with the same mask.
// sig may live in caller scratch — it is copied on insertion.
//
// A record can dominate sig only if its sum is no larger than sig's, so
// the scan of the sum-ordered chain stops at the first larger sum, which
// is also where sig goes when it is not dominated. The answer depends only
// on the set of records, never on their order, so pruning decisions are
// those of a full scan.
//
//hetrta:hotpath
func (mm *memo) dominated(mask uint64, sig []int64) bool {
	sum := sigSum(sig)
	ci, seen := mm.m[mask]
	prev, next := -1, -1
	if seen {
		for next = mm.chains[ci]; next >= 0 && mm.arena[next+1] <= sum; prev, next = next, int(mm.arena[next]) {
			old := mm.arena[next+2 : next+2+len(sig)]
			dom := true
			for i, x := range sig {
				if old[i] > x {
					dom = false
					break
				}
			}
			if dom {
				return true
			}
		}
	}
	if mm.entries < mm.limit {
		mm.entries++
		at := len(mm.arena)
		//lint:alloc arena growth: amortized doubling, and a pooled memo starts at the capacity an earlier search grew
		mm.arena = append(append(mm.arena, int64(next), sum), sig...)
		switch {
		case !seen:
			mm.m[mask] = len(mm.chains)
			//lint:alloc chain growth: amortized doubling, and a pooled memo starts at the capacity an earlier search grew
			mm.chains = append(mm.chains, at)
		case prev < 0:
			mm.chains[ci] = at
		default:
			mm.arena[prev] = int64(at)
		}
	}
	return false
}
