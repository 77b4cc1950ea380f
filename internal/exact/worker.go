package exact

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/sched"
)

// worker is one branch-and-bound searcher: the in-place search state plus
// per-depth and per-call scratch, all private to the worker. Everything
// shared — incumbent, budget, memo, instance data — lives in sh.
type worker struct {
	sh *shared
	id int

	// cur is THE search state: the dfs mutates it in place via
	// applyTo/undo instead of cloning per branch, so descending one level
	// costs an O(1) undo record rather than a copy of every class's
	// availability vector.
	cur state

	// levels holds per-recursion-depth scratch (estimates, candidate
	// lists); depth is bounded by the number of branchable nodes, so the
	// buffers are allocated once and reused across the whole search.
	levels []level

	// Scratch for estimates and signature: the dominance vector is built
	// in sigBuf and only copied when it is actually inserted into the
	// memo; classMin and availSum hold each class's minimum and total
	// machine availability, remBuf its remaining work.
	sigBuf   []int64
	classMin []int64
	availSum []int64
	remBuf   []int64
}

// level is the per-depth scratch of one dfs frame.
type level struct {
	est      []int64
	cands    []cand
	filtered []cand
}

type state struct {
	mask uint64 // scheduled nodes
	// finish holds the finish time of every scheduled node. Entries of
	// unscheduled nodes are scratch: estimates writes their estimated
	// finish there, and nothing reads them once the pass is over.
	finish []int64
	// avail[c][i] is the absolute availability time of machine i of class c.
	avail    [][]int64
	makespan int64
	order    []int        // branched (non-free) nodes in SGS order
	spans    []sched.Span // only populated during replay
}

// undoRec is what applyTo changed beyond the append-only order slice: the
// previous mask and makespan, plus the single machine-availability slot the
// branched node occupied. Finish times of newly scheduled nodes need no
// restoration — outside estimates, finish is only ever read for nodes whose
// mask bit is set.
type undoRec struct {
	prevMask     uint64
	prevMakespan int64
	orderLen     int
	machine      int // index into avail[class]; -1 when nothing branched
	class        int
	prevAvail    int64
}

func newWorker(sh *shared, id int) *worker {
	w := &worker{sh: sh, id: id}
	w.cur = state{
		finish: make([]int64, sh.n),
		avail:  w.newAvail(),
		order:  make([]int, 0, sh.n),
	}
	w.levels = make([]level, sh.n+1)
	w.sigBuf = make([]int64, 0, sh.p.Total()+sh.n+1)
	w.classMin = make([]int64, sh.nClasses)
	w.availSum = make([]int64, sh.nClasses)
	w.remBuf = make([]int64, sh.nClasses)
	return w
}

// loop runs pool tasks until the pool closes — either because the search
// tree drained or because a sibling observed cancellation, budget
// exhaustion, or a panic and halted the pool. The context poll lives in
// runTask's dfs, cadenced by the shared expansion counter, so an active
// worker polls within CtxCheckEvery global expansions; an idle worker
// parks in pool.wait and is woken by the halting worker's close broadcast.
func (w *worker) loop() {
	sh := w.sh
	for {
		if sh.stop.Load() {
			return
		}
		order, ok := w.next()
		if !ok {
			return
		}
		w.runTask(order)
		sh.pool.finish()
	}
}

// next returns the next task: the worker's own deque first (newest-first,
// keeping its working set hot), then the oldest — shallowest, hence
// largest — subtree stolen from a sibling. ok is false once the pool is
// closed.
func (w *worker) next() (order []int, ok bool) {
	p := w.sh.pool
	//lint:polled parks in pool.wait between scans; the loop cannot spin — wait blocks until a push or close broadcast, and whichever worker observes cancellation closes the pool
	for {
		g := p.gen()
		if t, ok := p.deques[w.id].popTail(); ok {
			return t, true
		}
		for i := 1; i < len(p.deques); i++ {
			if t, ok := p.deques[(w.id+i)%len(p.deques)].stealHead(); ok {
				return t, true
			}
		}
		if !p.wait(g) {
			return nil, false
		}
	}
}

// runTask rebuilds the search state from a frontier prefix (the SGS order
// of the branched nodes above the handoff point) and explores its subtree
// with the in-place DFS. A nil/empty prefix is the root task.
func (w *worker) runTask(order []int) {
	st := &w.cur
	st.mask = 0
	st.makespan = 0
	st.order = st.order[:0]
	for _, row := range st.avail {
		for i := range row {
			row[i] = 0
		}
	}
	w.scheduleFreeNodes(st)
	for _, v := range order {
		w.applyTo(st, v)
	}
	w.dfs(len(order))
}

// offload tries to hand the subtree below (cur + v) to the pool as a new
// frontier task. It declines — and the caller inlines the subtree — when
// enough tasks are already outstanding to keep every worker fed or the
// deque is full; the copy of the order prefix is the task's only
// allocation.
func (w *worker) offload(v int) bool {
	sh := w.sh
	if sh.pool.outstanding.Load() >= sh.backlog {
		return false
	}
	cur := w.cur.order
	order := make([]int, len(cur)+1)
	copy(order, cur)
	order[len(cur)] = v
	return sh.pool.push(w.id, order)
}

// newAvail allocates one availability vector per class, sized to the class.
func (w *worker) newAvail() [][]int64 {
	avail := make([][]int64, w.sh.nClasses)
	for c := range avail {
		avail[c] = make([]int64, w.sh.p.Count(c))
	}
	return avail
}

// levelAt returns depth d's scratch, allocating its buffers on first use.
func (w *worker) levelAt(d int) *level {
	l := &w.levels[d]
	if l.est == nil {
		l.est = make([]int64, w.sh.n)
	}
	return l
}

// undo reverts applyTo. The zero-WCET nodes scheduled by the forced-move
// cascade are undone by the mask restore alone.
func (w *worker) undo(u undoRec) {
	st := &w.cur
	st.mask = u.prevMask
	st.makespan = u.prevMakespan
	st.order = st.order[:u.orderLen]
	if u.machine >= 0 {
		st.avail[u.class][u.machine] = u.prevAvail
	}
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
	u := undoRec{prevMask: st.mask, prevMakespan: st.makespan, orderLen: len(st.order), machine: -1}
	var ready int64
	for _, p := range sh.preds[v] {
		if st.finish[p] > ready {
			ready = st.finish[p]
		}
	}
	cls := sh.cls[v]
	avail := st.avail[cls]
	resBase := sh.p.Base(cls)
	// Earliest-available machine, lowest index on ties, for determinism.
	mi := 0
	for i := 1; i < len(avail); i++ {
		if avail[i] < avail[mi] {
			mi = i
		}
	}
	u.machine, u.class, u.prevAvail = mi, cls, avail[mi]
	start := ready
	if avail[mi] > start {
		start = avail[mi]
	}
	fin := start + sh.wcet[v]
	avail[mi] = fin
	st.mask |= 1 << uint(v)
	st.finish[v] = fin
	st.order = append(st.order, v)
	if st.spans != nil {
		st.spans[v] = sched.Span{Node: v, Start: start, Finish: fin, Resource: resBase + mi}
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
	st := &state{
		finish: make([]int64, w.sh.n),
		avail:  w.newAvail(),
		spans:  make([]sched.Span, w.sh.n),
	}
	w.scheduleFreeNodes(st)
	for _, v := range order {
		w.applyTo(st, v)
	}
	return st.spans
}

// estimates computes, for each unscheduled node, a lower bound on its start
// time given the partial schedule — predecessors' (estimated) finishes and
// the earliest machine availability of its class — into est (one scratch
// slice per dfs depth), and returns the admissible bound pruning the node:
// the partial makespan, every unscheduled node's estimated start plus its
// remaining critical path, and every class's availability plus remaining
// work spread over its machines. One pass in topological order computes
// all of it; it leaves each class's minimum availability in w.classMin for
// signature.
//
//hetrta:hotpath
func (w *worker) estimates(st *state, est []int64) int64 {
	sh := w.sh
	for c, row := range st.avail {
		m := int64(math.MaxInt64)
		var sum int64
		for _, a := range row {
			if a < m {
				m = a
			}
			sum += a
		}
		w.classMin[c] = m
		w.availSum[c] = sum
		w.remBuf[c] = 0
	}
	lb := st.makespan
	mask := st.mask
	finish := st.finish
	for _, v := range sh.topo {
		if mask&(1<<uint(v)) != 0 {
			continue
		}
		c := sh.cls[v]
		var e int64
		if sh.wcet[v] > 0 {
			if m := w.classMin[c]; m != math.MaxInt64 && m > e {
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
		est[v] = e
		finish[v] = e + sh.wcet[v]
		if b := e + sh.tail[v]; b > lb {
			lb = b
		}
		w.remBuf[c] += sh.wcet[v]
	}
	for c, rem := range w.remBuf {
		if rem == 0 || len(st.avail[c]) == 0 {
			continue
		}
		if b := divCeil(w.availSum[c]+rem, int64(len(st.avail[c]))); b > lb {
			lb = b
		}
	}
	return lb
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
// minima estimates left in w.classMin, so it must follow estimates on the
// same state.
//
//hetrta:hotpath
func (w *worker) signature(st *state) []int64 {
	sh := w.sh
	sig := w.sigBuf[:0]
	for _, row := range st.avail {
		start := len(sig)
		sig = append(sig, row...)
		slices.Sort(sig[start:])
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
	unscheduled := ^st.mask
	for done := st.mask; done != 0; done &= done - 1 {
		v := bits.TrailingZeros64(done)
		if sh.succMask[v]&unscheduled == 0 {
			continue
		}
		floor := int64(math.MaxInt64)
		for mask := sh.feeds[v]; mask != 0; mask &= mask - 1 {
			c := bits.TrailingZeros64(mask)
			if m := w.classMin[c]; m < floor {
				floor = m
			}
		}
		if floor == math.MaxInt64 {
			floor = sinkFloor
		}
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

// dfs is the branch-and-bound search over schedule-generation orders, the
// hottest code in the package: every expansion passes through here. The
// shared expansion counter drives both the budget and the context poll, so
// bounded-abort and cancellation hold within their documented windows at
// any parallelism.
//
//hetrta:hotpath
func (w *worker) dfs(depth int) {
	sh := w.sh
	if sh.stop.Load() {
		return
	}
	st := &w.cur
	if st.mask == sh.full {
		sh.publish(st.makespan, st.order)
		return
	}
	exp := sh.spent.Add(1)
	if exp > sh.maxExp {
		sh.budgetHit.Store(true)
		sh.halt()
		return
	}
	if exp%sh.ctxEvery == 0 {
		if err := sh.ctx.Err(); err != nil {
			sh.fail(err)
			return
		}
	}
	lv := w.levelAt(depth)
	if w.estimates(st, lv.est) >= sh.best.Load() {
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
	// The comparison is a total order (IDs are distinct), so the unstable
	// sort is deterministic.
	slices.SortFunc(filtered, func(a, b cand) int {
		if c := cmp.Compare(a.est, b.est); c != 0 {
			return c
		}
		if c := cmp.Compare(b.tail, a.tail); c != 0 {
			return c
		}
		return a.v - b.v
	})
	for _, c := range filtered {
		if sh.pool != nil && depth < sh.spawnDepth && w.offload(c.v) {
			continue
		}
		rec := w.applyTo(st, c.v)
		w.dfs(depth + 1)
		w.undo(rec)
		if sh.stop.Load() {
			return
		}
	}
}
