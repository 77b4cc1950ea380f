package exact

import (
	"math"
	"math/bits"

	"repro/internal/sched"
)

// worker is the branch-and-bound searcher: the in-place search state plus
// per-depth and per-call scratch. The instance data, incumbent, budget and
// memo live in sh.
type worker struct {
	sh *shared

	// cur is THE search state: the dfs mutates it in place via
	// applyTo/undo instead of cloning per branch, so descending one level
	// costs an O(1) undo record rather than a copy of every class's
	// availability vector.
	cur state

	// levels holds per-recursion-depth scratch (start estimates, candidate
	// lists); depth is bounded by the number of branchable nodes, so the
	// buffers are allocated once and reused across the whole search.
	levels []level

	// Scratch for prune and signature: the dominance vector is built in
	// sigBuf and only copied when it is actually inserted into the memo;
	// classMin holds each class's earliest machine availability, floors
	// the clamp floor of each distinct feed mask (sh.feedMasks).
	sigBuf   []int64
	classMin []int64
	floors   []int64
}

// level is the per-depth scratch of one dfs frame.
type level struct {
	est      []int64
	cands    []cand
	filtered []cand
}

type state struct {
	mask uint64 // scheduled nodes
	// tmask is mask by topological position: bit i is set when node
	// sh.topo[i] is scheduled, so prune visits only the unscheduled nodes,
	// in topological order.
	tmask uint64
	// finish holds the finish time of every scheduled node. Entries of
	// unscheduled nodes are scratch: prune writes their estimated
	// finish there, and nothing reads them once the pass is over.
	finish []int64
	// avail[c] is class c's machine availability, kept sorted by
	// (time, machine): ids[c][i] is the class-local index of the machine
	// free at avail[c][i]. avail[c][0] is therefore the machine the SGS
	// rule picks — earliest available, lowest index on ties.
	avail [][]int64
	ids   [][]int
	// availSum[c] is the sum of avail[c]; rem[c] is the WCET still
	// unscheduled in class c. applyTo and undo maintain both, so the
	// class-load bound costs O(1) per class.
	availSum []int64
	rem      []int64
	makespan int64
	order    []int        // branched (non-free) nodes in SGS order
	spans    []sched.Span // only populated during replay
}

// undoRec is what applyTo changed beyond the append-only order slice: the
// previous mask and makespan, plus the machine the branched node occupied —
// it left row position 0 at prevAvail and was re-inserted at pos. Finish
// times of newly scheduled nodes need no restoration — outside prune,
// finish is only ever read for nodes whose mask bit is set.
type undoRec struct {
	prevMask     uint64
	prevTMask    uint64
	prevMakespan int64
	orderLen     int
	class        int
	pos          int
	prevAvail    int64
}

func newWorker(sh *shared) *worker {
	w := &worker{sh: sh}
	w.cur = w.newState()
	w.levels = make([]level, sh.n+1)
	w.sigBuf = make([]int64, 0, sh.p.Total()+sh.n+1)
	w.classMin = make([]int64, sh.nClasses)
	w.floors = make([]int64, len(sh.feedMasks))
	return w
}

// newState allocates a search state: one availability row (and machine-id
// row) per class, sized to the class; the int64 vectors share one backing
// array, the machine ids another. reset puts it at the root.
func (w *worker) newState() state {
	sh := w.sh
	nc, total := sh.nClasses, sh.p.Total()
	words := make([]int64, sh.n+2*nc+total)
	idWords := make([]int, total)
	st := state{
		finish:   words[:sh.n:sh.n],
		availSum: words[sh.n : sh.n+nc : sh.n+nc],
		rem:      words[sh.n+nc : sh.n+2*nc : sh.n+2*nc],
		avail:    make([][]int64, nc),
		ids:      make([][]int, nc),
		order:    make([]int, 0, sh.n),
	}
	words = words[sh.n+2*nc:]
	for c := range st.avail {
		k := sh.p.Count(c)
		st.avail[c], words = words[:k:k], words[k:]
		st.ids[c], idWords = idWords[:k:k], idWords[k:]
	}
	return st
}

// reset puts st at the search root: every machine free at time 0 (rows in
// machine order), all work remaining, and the forced zero-WCET moves made.
func (w *worker) reset(st *state) {
	st.mask, st.tmask = 0, 0
	st.makespan = 0
	st.order = st.order[:0]
	for c, row := range st.avail {
		for i := range row {
			row[i] = 0
			st.ids[c][i] = i
		}
		st.availSum[c] = 0
	}
	copy(st.rem, w.sh.work)
	w.scheduleFreeNodes(st)
}

// levelAt returns depth d's scratch, allocating its buffers on first use.
func (w *worker) levelAt(d int) *level {
	l := &w.levels[d]
	if l.est == nil {
		l.est = make([]int64, w.sh.n)
	}
	return l
}

// undo reverts applyTo: the branched machine moves from row position pos
// back to the front, the entries it passed shift back right. The zero-WCET
// nodes scheduled by the forced-move cascade are undone by the mask restore
// alone.
//
//hetrta:hotpath
func (w *worker) undo(u undoRec) {
	st := &w.cur
	row, ids := st.avail[u.class], st.ids[u.class]
	fin, mid := row[u.pos], ids[u.pos]
	for k := u.pos; k > 0; k-- {
		row[k], ids[k] = row[k-1], ids[k-1]
	}
	row[0], ids[0] = u.prevAvail, mid
	st.availSum[u.class] -= fin - u.prevAvail
	st.rem[u.class] += w.sh.wcet[st.order[u.orderLen]]
	st.mask, st.tmask = u.prevMask, u.prevTMask
	st.makespan = u.prevMakespan
	st.order = st.order[:u.orderLen]
}

// scheduleFreeNodes places every ready zero-WCET node (sync nodes, dummy
// sources/sinks) immediately at its predecessors' max finish. These are
// forced moves: they consume no resource, so delaying them never helps.
// Only the unscheduled bits of zeroMask are visited; the fixpoint does not
// depend on the visiting order, since each node's time is fixed by its
// predecessors alone.
//
//hetrta:hotpath
func (w *worker) scheduleFreeNodes(st *state) {
	sh := w.sh
	for changed := true; changed; {
		changed = false
		for free := sh.zeroMask &^ st.mask; free != 0; free &= free - 1 {
			v := bits.TrailingZeros64(free)
			if sh.predMask[v]&^st.mask != 0 {
				continue
			}
			var t int64
			for _, p := range sh.preds[v] {
				if st.finish[p] > t {
					t = st.finish[p]
				}
			}
			st.mask |= 1 << uint(v)
			st.tmask |= sh.tbit[v]
			st.finish[v] = t
			if st.spans != nil {
				st.spans[v] = sched.Span{Node: v, Start: t, Finish: t, Resource: -1}
			}
			if t > st.makespan {
				st.makespan = t
			}
			changed = true
		}
	}
}

// applyTo schedules node v on st in place using the serial SGS rule (with
// forced zero-WCET moves applied) and returns the undo record.
//
//hetrta:hotpath
func (w *worker) applyTo(st *state, v int) undoRec {
	sh := w.sh
	var ready int64
	for _, p := range sh.preds[v] {
		if st.finish[p] > ready {
			ready = st.finish[p]
		}
	}
	cls := sh.cls[v]
	row, ids := st.avail[cls], st.ids[cls]
	// Earliest-available machine, lowest index on ties: the row's front.
	prev, mid := row[0], ids[0]
	start := ready
	if prev > start {
		start = prev
	}
	fin := start + sh.wcet[v]
	// Re-insert the machine at fin: every entry ordered before (fin, mid)
	// shifts one slot forward.
	k := 1
	for ; k < len(row) && (row[k] < fin || row[k] == fin && ids[k] < mid); k++ {
		row[k-1], ids[k-1] = row[k], ids[k]
	}
	row[k-1], ids[k-1] = fin, mid
	u := undoRec{prevMask: st.mask, prevTMask: st.tmask, prevMakespan: st.makespan,
		orderLen: len(st.order), class: cls, pos: k - 1, prevAvail: prev}
	st.availSum[cls] += fin - prev
	st.rem[cls] -= sh.wcet[v]
	st.mask |= 1 << uint(v)
	st.tmask |= sh.tbit[v]
	st.finish[v] = fin
	st.order = append(st.order, v)
	if st.spans != nil {
		st.spans[v] = sched.Span{Node: v, Start: start, Finish: fin, Resource: sh.p.Base(cls) + mid}
	}
	if fin > st.makespan {
		st.makespan = fin
	}
	w.scheduleFreeNodes(st)
	return u
}

// replay re-executes an SGS order with span recording enabled. It runs
// once per search (for the final incumbent), so it allocates its own
// state.
func (w *worker) replay(order []int) []sched.Span {
	st := w.newState()
	st.spans = make([]sched.Span, w.sh.n)
	w.reset(&st)
	for _, v := range order {
		w.applyTo(&st, v)
	}
	return st.spans
}

// prune reports whether the admissible lower bound of st reaches best, the
// incumbent: the partial makespan, every class's availability plus
// remaining work spread over its machines, and every unscheduled node's
// estimated start plus its remaining critical path. The bound is a
// maximum, so prune checks the O(classes) terms first and stops the
// topological pass at the first node whose term reaches best; it prunes
// exactly when the full maximum would.
//
// A pass that runs to the end leaves, for each unscheduled node, a lower
// bound on its start time in est (one scratch slice per dfs depth) — its
// predecessors' (estimated) finishes and the earliest machine availability
// of its class — and each class's earliest availability in w.classMin for
// signature. est is only read when prune returns false.
//
//hetrta:hotpath
func (w *worker) prune(st *state, est []int64, best int64) bool {
	sh := w.sh
	if st.makespan >= best {
		return true
	}
	for c, row := range st.avail {
		w.classMin[c] = math.MaxInt64
		if len(row) == 0 {
			continue
		}
		w.classMin[c] = row[0]
		if rem := st.rem[c]; rem > 0 && divCeil(st.availSum[c]+rem, int64(len(row))) >= best {
			return true
		}
	}
	finish := st.finish
	for open := sh.full &^ st.tmask; open != 0; open &= open - 1 {
		v := sh.topo[bits.TrailingZeros64(open)]
		var e int64
		if sh.wcet[v] > 0 {
			if m := w.classMin[sh.cls[v]]; m != math.MaxInt64 && m > e {
				e = m
			}
		}
		// A scheduled predecessor's entry is its finish time, an
		// unscheduled one's the estimate written earlier in this pass.
		for _, p := range sh.preds[v] {
			if finish[p] > e {
				e = finish[p]
			}
		}
		if e+sh.tail[v] >= best {
			return true
		}
		est[v] = e
		finish[v] = e + sh.wcet[v]
	}
	return false
}

// signature builds the dominance vector for memoization: sorted per-class
// machine availability (classes in platform order), the finish times of
// scheduled nodes that still have unscheduled successors (in node-ID
// order), and the partial makespan. Two states with equal masks compare
// componentwise; a state dominated by a stored one cannot lead to a better
// completion.
//
// Finish times are clamped up to the earliest machine availability of the
// classes the node's finish can actually influence (through zero-WCET
// chains): a class-c successor starts no earlier than class c's minimum
// availability, and the final makespan is at least every current
// availability, so a finish below the relevant floor can never matter.
// States differing only in such irrelevant finishes merge; this collapse is
// what keeps small-m instances tractable.
// The vector is built in the worker's scratch buffer, valid until the next
// signature call; the memo copies it only on insertion. It reads the class
// minima prune left in w.classMin, so it must follow a prune that returned
// false on the same state.
//
//hetrta:hotpath
func (w *worker) signature(st *state) []int64 {
	sh := w.sh
	sig := w.sigBuf[:0]
	for _, row := range st.avail {
		sig = append(sig, row...) // already sorted
	}
	// Fallback floor when a finish only feeds the makespan (zero-WCET sink
	// chains): any current availability lower-bounds the final makespan,
	// so the largest of the class minima is a sound clamp.
	sinkFloor := int64(math.MaxInt64)
	for c := 0; c < sh.nClasses; c++ {
		if m := w.classMin[c]; m != math.MaxInt64 && (sinkFloor == math.MaxInt64 || m > sinkFloor) {
			sinkFloor = m
		}
	}
	// Each distinct feed mask's floor is computed once per call, on first
	// use; have marks the ones computed so far.
	var have uint64
	unscheduled := ^st.mask
	for done := st.mask; done != 0; done &= done - 1 {
		v := bits.TrailingZeros64(done)
		if sh.succMask[v]&unscheduled == 0 {
			continue
		}
		fi := sh.feedIdx[v]
		if have&(1<<uint(fi)) == 0 {
			floor := int64(math.MaxInt64)
			for mask := sh.feedMasks[fi]; mask != 0; mask &= mask - 1 {
				if m := w.classMin[bits.TrailingZeros64(mask)]; m < floor {
					floor = m
				}
			}
			if floor == math.MaxInt64 {
				floor = sinkFloor
			}
			w.floors[fi] = floor
			have |= 1 << uint(fi)
		}
		floor := w.floors[fi]
		f := st.finish[v]
		if f < floor {
			f = floor
		}
		sig = append(sig, f)
	}
	sig = append(sig, st.makespan)
	w.sigBuf = sig
	return sig
}

// candidates collects the branchable nodes of st — unscheduled, non-zero
// WCET, every predecessor scheduled — in ascending ID order into lv.cands.
//
//hetrta:hotpath
func (w *worker) candidates(st *state, lv *level) []cand {
	sh := w.sh
	cands := lv.cands[:0]
	for open := sh.full &^ st.mask &^ sh.zeroMask; open != 0; open &= open - 1 {
		v := bits.TrailingZeros64(open)
		if sh.predMask[v]&^st.mask != 0 {
			continue
		}
		e := lv.est[v]
		cands = append(cands, cand{v: v, est: e, ect: e + sh.wcet[v], tail: sh.tail[v]})
	}
	lv.cands = cands
	return cands
}

type cand struct {
	v    int
	est  int64
	ect  int64 // est + WCET
	tail int64
}

// candBefore is the branching order: earliest estimated start first, then
// longest tail, then lowest ID. IDs are distinct, so it is a total order
// and any correct sort yields the same sequence.
//
//hetrta:hotpath
func candBefore(a, b cand) bool {
	if a.est != b.est {
		return a.est < b.est
	}
	if a.tail != b.tail {
		return a.tail > b.tail
	}
	return a.v < b.v
}

// sortCands sorts cs by candBefore. Candidate lists are short (at most the
// graph's width), so insertion sort beats a general sort and its closure.
//
//hetrta:hotpath
func sortCands(cs []cand) {
	for i := 1; i < len(cs); i++ {
		c := cs[i]
		j := i
		for ; j > 0 && candBefore(c, cs[j-1]); j-- {
			cs[j] = cs[j-1]
		}
		cs[j] = c
	}
}

// dfs is the branch-and-bound search over schedule-generation orders, the
// hottest code in the package: every expansion passes through here. The
// expansion counter drives both the budget and the context poll.
//
//hetrta:hotpath
func (w *worker) dfs(depth int) {
	sh := w.sh
	if sh.stop {
		return
	}
	st := &w.cur
	if st.mask == sh.full {
		sh.publish(st.makespan, st.order)
		return
	}
	sh.spent++
	if sh.spent > sh.maxExp {
		sh.budgetHit, sh.stop = true, true
		return
	}
	if sh.spent%sh.ctxEvery == 0 {
		if err := sh.ctx.Err(); err != nil {
			sh.err, sh.stop = err, true
			return
		}
	}
	lv := w.levelAt(depth)
	if w.prune(st, lv.est, sh.best) {
		return
	}
	if sh.memo.dominated(st.mask, w.signature(st)) {
		return
	}

	cands := w.candidates(st, lv)

	// Giffler–Thompson active-schedule restriction: branch only on the
	// class achieving the minimum earliest completion time (lowest class
	// index on ties), and only on its candidates that could start strictly
	// before that completion. Filtered in place (writes trail reads).
	if !sh.unrestricted && len(cands) > 1 {
		minECT := cands[0].ect
		cls := sh.cls[cands[0].v]
		for _, c := range cands[1:] {
			cc := sh.cls[c.v]
			if c.ect < minECT || (c.ect == minECT && cc < cls) {
				minECT = c.ect
				cls = cc
			}
		}
		keep := cands[:0]
		for _, c := range cands {
			if sh.cls[c.v] == cls && c.est < minECT {
				keep = append(keep, c)
			}
		}
		cands = keep
	}

	// Interchangeable-job symmetry breaking: among candidates with
	// identical class, WCET, successor set, and estimated start, only the
	// lowest ID branches.
	filtered := lv.filtered[:0]
	for i, c := range cands {
		dup := false
		for j := 0; j < i; j++ {
			d := cands[j]
			if d.v < c.v && sh.cls[d.v] == sh.cls[c.v] &&
				sh.wcet[d.v] == sh.wcet[c.v] &&
				sh.succMask[d.v] == sh.succMask[c.v] && d.est == c.est {
				dup = true
				break
			}
		}
		if !dup {
			filtered = append(filtered, c)
		}
	}
	lv.filtered = filtered
	sortCands(filtered)
	for _, c := range filtered {
		rec := w.applyTo(st, c.v)
		w.dfs(depth + 1)
		w.undo(rec)
		if sh.stop {
			return
		}
	}
}
