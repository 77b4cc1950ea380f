package exact

import (
	"math"
	"sync"
)

// memo is the dominance store, plus the worker scratch pooled with it:
// the per-depth candidate lists and the search state's backing.
//
// It keeps its records back to back in arena: each record is the arena
// offset of the next record with the same mask (0 ends the chain; arena[0]
// is a pad word, so no record sits at offset 0), then the signature's
// saturating sum, then the signature. A signature's length depends only on
// the mask (the machine count, the scheduled nodes with unscheduled
// successors, and the makespan), so the chain needs no per-record length.
// Records chain in ascending order of sum, later records after earlier ones
// of equal sum.
//
// slots maps a mask to the offset of its chain's first record: an
// open-addressed table with linear probing, indexed by the mask's
// Fibonacci hash (the top log2(len(slots)) bits of mask·φ⁻¹·2⁶⁴, shift the
// precomputed 64 − log2(len(slots))), never more than half full, so a
// probe always meets an empty slot (head 0) or the mask. A slot is claimed
// by its mask's first record and never freed during a search; used lists
// the claimed slots, so releasing a memo clears only those.
//
// A memo has one owner, the search that took it from the pool; it is not
// safe for concurrent use.
type memo struct {
	slots []memoSlot
	shift uint
	used  []int32
	arena []int64
	// entries counts the records; once it reaches limit, lookups continue
	// and insertions stop.
	entries int64
	limit   int64

	// levels is the dfs's per-depth candidate scratch. Each level keeps
	// the capacity earlier searches grew, so a search allocates none.
	levels []level
	// state backs the worker's search state.
	state stateBuf
}

type memoSlot struct {
	mask uint64
	head int
}

// fibMul is 2⁶⁴/φ, the Fibonacci-hashing multiplier: the top bits of
// mask·fibMul spread masks that differ in any bit.
const fibMul = 0x9e3779b97f4a7c15

// minSlots is the table size a fresh memo starts with.
const minSlots = 1 << 10

func newMemo(limit int64) *memo {
	mm := &memo{limit: limit, arena: make([]int64, 1, 1<<12)}
	mm.makeTable(minSlots)
	return mm
}

// makeTable replaces the table with an empty one of size slots (a power of
// two).
func (mm *memo) makeTable(slots int) {
	mm.slots = make([]memoSlot, slots)
	mm.shift = 64
	for s := slots; s > 1; s >>= 1 {
		mm.shift--
	}
}

// memos recycles memos between searches, so a search reuses the table,
// arena and scratch an earlier one grew.
var memos = sync.Pool{New: func() any { return newMemo(0) }}

// Retention caps for a pooled memo: a search that grew its arena or table
// past them (far beyond what a 10k-expansion budget needs) frees them
// instead of pinning them in the pool.
const (
	maxPooledArena = 1 << 18 // int64 words, 2 MiB
	maxPooledSlots = 1 << 15 // 16-byte slots, 512 KiB
)

func getMemo(limit int64) *memo {
	mm := memos.Get().(*memo)
	mm.limit = limit
	return mm
}

// putMemo clears mm and returns it to the pool; it must only be called
// once the search using it has finished.
func putMemo(mm *memo) {
	if len(mm.slots) > maxPooledSlots {
		mm.makeTable(minSlots)
	} else {
		for _, i := range mm.used {
			mm.slots[i] = memoSlot{}
		}
	}
	mm.used = mm.used[:0]
	if cap(mm.arena) > maxPooledArena {
		mm.arena = make([]int64, 1, 1<<12)
	} else {
		mm.arena = mm.arena[:1]
	}
	mm.entries = 0
	memos.Put(mm)
}

// satAdd is the saturating sum s + x. Saturating addition is monotone in
// each argument, so a signature that dominates another component-wise
// never has a larger sum, whatever the magnitudes of the components.
//
//hetrta:hotpath
func satAdd(s, x int64) int64 {
	t := s + x
	switch {
	case x > 0 && t < s:
		t = math.MaxInt64
	case x < 0 && t > s:
		t = math.MinInt64
	}
	return t
}

// sigBuf returns room for a signature of up to k words at the arena's
// tail, where dominated reads it and where an inserted record keeps it, so
// a signature is written once and never copied.
//
//hetrta:hotpath
func (mm *memo) sigBuf(k int) []int64 {
	at := len(mm.arena)
	if cap(mm.arena)-at < 2+k {
		//lint:alloc arena growth: amortized by append's policy, and a pooled memo starts at the capacity an earlier search grew
		mm.arena = append(mm.arena[:cap(mm.arena)], make([]int64, 2+k)...)[:at]
	}
	return mm.arena[at+2 : at+2+k]
}

// find returns the index of mask's slot, or of the empty slot where mask
// would go.
//
//hetrta:hotpath
func (mm *memo) find(mask uint64) int {
	last := len(mm.slots) - 1
	i := int((mask * fibMul) >> mm.shift)
	//lint:polled the table is at most half full, so the probe meets an empty slot within len(slots)/2 steps
	for mm.slots[i].head != 0 && mm.slots[i].mask != mask {
		i = (i + 1) & last
	}
	return i
}

// grow doubles the table and re-inserts every claimed slot.
func (mm *memo) grow() {
	old := mm.slots
	mm.makeTable(2 * len(old))
	for k, i := range mm.used {
		j := mm.find(old[i].mask)
		mm.slots[j] = old[i]
		mm.used[k] = int32(j)
	}
}

// dominated checks and updates the memo; it reports whether the state
// (mask, sig) is dominated by a previously seen state with the same mask,
// where sig is the first k words of the last sigBuf and sum their
// saturating sum.
//
// A record can dominate sig only if its sum is no larger than sig's, so
// the scan of the sum-ordered chain stops at the first larger sum, which
// is also where sig goes when it is not dominated. The answer depends only
// on the set of records, never on their order, so pruning decisions are
// those of a full scan.
//
//hetrta:hotpath
func (mm *memo) dominated(mask uint64, sum int64, k int) bool {
	a := mm.arena
	at := len(a)
	sig := a[at+2 : at+2+k]
	i := mm.find(mask)
	s := &mm.slots[i]
	prev, next := 0, s.head
	for ; next != 0 && a[next+1] <= sum; prev, next = next, int(a[next]) {
		old := a[next+2 : next+2+k]
		dom := true
		for j, x := range sig {
			if old[j] > x {
				dom = false
				break
			}
		}
		if dom {
			return true
		}
	}
	if mm.entries >= mm.limit {
		return false
	}
	mm.entries++
	a = a[:at+2+k]
	a[at], a[at+1] = int64(next), sum
	mm.arena = a
	switch {
	case s.head == 0:
		s.mask, s.head = mask, at
		//lint:alloc claimed-slot list growth: amortized doubling, and a pooled memo starts at the capacity an earlier search grew
		mm.used = append(mm.used, int32(i))
		if 2*len(mm.used) > len(mm.slots) {
			mm.grow()
		}
	case prev == 0:
		s.head = at
	default:
		a[prev] = int64(at)
	}
	return false
}
