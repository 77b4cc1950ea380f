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

	// levels holds per-recursion-depth scratch (candidate lists); depth is
	// bounded by the number of branchable nodes. The buffers come from the
	// pooled memo, so they grow once and serve search after search.
	levels []level

	// maxSig is the longest signature the instance has.
	maxSig int
}

// level is the per-depth scratch of one dfs frame.
type level struct {
	cands []cand
}

// stateBuf is the backing of a search state; newState reuses its
// capacity and stores what it grew back into it.
type stateBuf struct {
	words  []int64
	ids    []int
	avail  [][]int64
	idRows [][]int
	order  []int
}

type state struct {
	mask uint64 // scheduled nodes
	// rmask is the scheduled non-zero nodes by tail rank: bit r is set when
	// the node of rank r (sh.rbit) is scheduled, so the longest tail among
	// a class's open nodes is one TrailingZeros64 away.
	rmask uint64
	// front is the scheduled nodes that still have an unscheduled
	// successor: the nodes whose finish times enter the signature.
	front uint64
	// ready is the unscheduled nodes whose predecessors are all
	// scheduled. Outside scheduleFreeNodes it holds no zero-WCET node, so
	// it is the branchable set.
	ready uint64
	// finish holds the finish time of every scheduled node. Entries of
	// unscheduled nodes are scratch: pathBound writes their estimated
	// finish there, and nothing reads them once the pass is over.
	finish []int64
	// readyAt[v] is the latest finish among v's predecessors, written
	// when v joins ready and valid while it stays there: its predecessors'
	// finishes cannot change before v is scheduled.
	readyAt []int64
	// avail[c] is class c's machine availability, kept sorted by
	// (time, machine): ids[c][i] is the class-local index of the machine
	// free at avail[c][i]. avail[c][0] is therefore the machine the SGS
	// rule picks — earliest available, lowest index on ties.
	avail [][]int64
	ids   [][]int
	// rows is every class's row back to back, in class order: the avail
	// rows are windows of it.
	rows []int64
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
// previous mask, front, ready set and makespan, plus the machine the
// branched node occupied — it left row position 0 at prevAvail and was
// re-inserted at pos. Finish and readyAt entries need no restoration:
// outside pathBound, finish is only ever read for nodes whose mask bit is
// set, and readyAt for nodes whose ready bit is.
type undoRec struct {
	prevMask     uint64
	prevFront    uint64
	prevReady    uint64
	prevMakespan int64
	orderLen     int
	class        int
	pos          int
	prevAvail    int64
}

// newWorker builds the searcher for sh; its state and scratch come from
// the pooled memo sh.memo, so a memo backs one worker at a time.
func newWorker(sh *shared) *worker {
	mm := sh.memo
	w := &worker{sh: sh}
	w.cur = w.newState(&mm.state)
	w.levels = fit(mm.levels, sh.n+1)
	mm.levels = w.levels
	w.maxSig = sh.p.Total() + sh.n + 1
	return w
}

// fit returns s with length n, reusing its capacity when it suffices.
// Existing elements keep their values; newState and reset overwrite
// everything the search reads.
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// newState builds a search state on b: one availability row (and
// machine-id row) per class, sized to the class; the int64 vectors share
// one backing array, the machine ids another. reset puts it at the root.
func (w *worker) newState(b *stateBuf) state {
	sh := w.sh
	nc, total := sh.nClasses, sh.p.Total()
	b.words = fit(b.words, 2*sh.n+2*nc+total)
	b.ids = fit(b.ids, total)
	b.avail = fit(b.avail, nc)
	b.idRows = fit(b.idRows, nc)
	b.order = fit(b.order, sh.n)
	words, idWords := b.words, b.ids
	st := state{
		finish:   words[:sh.n:sh.n],
		readyAt:  words[sh.n : 2*sh.n : 2*sh.n],
		availSum: words[2*sh.n : 2*sh.n+nc : 2*sh.n+nc],
		rem:      words[2*sh.n+nc : 2*sh.n+2*nc : 2*sh.n+2*nc],
		avail:    b.avail,
		ids:      b.idRows,
		order:    b.order[:0],
	}
	words = words[2*sh.n+2*nc:]
	st.rows = words
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
	st.mask, st.rmask, st.front, st.ready = 0, 0, 0, 0
	for v, pm := range w.sh.predMask {
		if pm == 0 {
			st.ready |= 1 << uint(v)
			st.readyAt[v] = 0
		}
	}
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
	v := st.order[u.orderLen]
	st.rem[u.class] += w.sh.wcet[v]
	st.mask, st.front, st.ready = u.prevMask, u.prevFront, u.prevReady
	st.rmask &^= w.sh.rbit[v]
	st.makespan = u.prevMakespan
	st.order = st.order[:u.orderLen]
}

// scheduleFreeNodes places every ready zero-WCET node (sync nodes, dummy
// sources/sinks) immediately at its predecessors' max finish. These are
// forced moves: they consume no resource, so delaying them never helps.
// Each placed node joins front if it has successors, each of its
// predecessors whose last open successor it was leaves it, and each of its
// successors whose last open predecessor it was becomes ready. Only the
// ready bits of zeroMask are visited; the fixpoint does not depend on the
// visiting order, since each node's time is fixed by its predecessors
// alone.
//
//hetrta:hotpath
func (w *worker) scheduleFreeNodes(st *state) {
	sh := w.sh
	for free := st.ready & sh.zeroMask; free != 0; free = st.ready & sh.zeroMask {
		for ; free != 0; free &= free - 1 {
			v := bits.TrailingZeros64(free)
			t := st.readyAt[v]
			st.mask |= 1 << uint(v)
			st.ready &^= 1 << uint(v)
			st.finish[v] = t
			w.readySuccs(st, v)
			for _, p := range sh.preds[v] {
				if sh.succMask[p]&^st.mask == 0 {
					st.front &^= 1 << uint(p)
				}
			}
			if sh.succMask[v] != 0 {
				st.front |= 1 << uint(v)
			}
			if st.spans != nil {
				st.spans[v] = sched.Span{Node: v, Start: t, Finish: t, Resource: -1}
			}
			if t > st.makespan {
				st.makespan = t
			}
		}
	}
}

// readySuccs adds to st.ready the successors of v, just scheduled and
// finished, whose last open predecessor v was, and records their readyAt.
//
//hetrta:hotpath
func (w *worker) readySuccs(st *state, v int) {
	sh := w.sh
	for _, s := range sh.succs[v] {
		if sh.predMask[s]&^st.mask != 0 {
			continue
		}
		st.ready |= 1 << uint(s)
		var t int64
		for _, p := range sh.preds[s] {
			t = max(t, st.finish[p])
		}
		st.readyAt[s] = t
	}
}

// applyTo schedules node v on st in place using the serial SGS rule (with
// forced zero-WCET moves applied) and returns the undo record. v joins
// front if it has successors; a predecessor whose last open successor v
// was leaves it, and a successor whose last open predecessor v was
// becomes ready.
//
//hetrta:hotpath
func (w *worker) applyTo(st *state, v int) undoRec {
	sh := w.sh
	mask := st.mask | 1<<uint(v)
	front := st.front
	if sh.succMask[v] != 0 {
		front |= 1 << uint(v)
	}
	for _, p := range sh.preds[v] {
		if sh.succMask[p]&^mask == 0 {
			front &^= 1 << uint(p)
		}
	}
	cls := sh.cls[v]
	row, ids := st.avail[cls], st.ids[cls]
	// Earliest-available machine, lowest index on ties: the row's front.
	prev, mid := row[0], ids[0]
	start := st.readyAt[v]
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
	u := undoRec{prevMask: st.mask, prevFront: st.front, prevReady: st.ready,
		prevMakespan: st.makespan, orderLen: len(st.order), class: cls, pos: k - 1, prevAvail: prev}
	st.availSum[cls] += fin - prev
	st.rem[cls] -= sh.wcet[v]
	st.mask, st.front = mask, front
	st.rmask |= sh.rbit[v]
	st.finish[v] = fin
	st.ready &^= 1 << uint(v)
	w.readySuccs(st, v)
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
	var b stateBuf
	st := w.newState(&b)
	st.spans = make([]sched.Span, w.sh.n)
	w.reset(&st)
	for _, v := range order {
		w.applyTo(&st, v)
	}
	return st.spans
}

// pathBound is the full estimate pass: in topological order it bounds each
// unscheduled node's start by its predecessors' (estimated) finishes and,
// for a non-zero node, its class's earliest machine availability, writes
// the estimated finish into st.finish, and returns the maximum over the
// unscheduled nodes of estimated start plus remaining critical path — the
// path term of the search's lower bound. It costs O(n·deg), so the search
// runs it only at the root; below the root dfs carries the term down
// (childBound).
func (w *worker) pathBound(st *state) int64 {
	sh := w.sh
	finish := st.finish
	var m int64
	for _, v := range sh.topo {
		if st.mask&(1<<uint(v)) != 0 {
			continue
		}
		var e int64
		if row := st.avail[sh.cls[v]]; sh.wcet[v] > 0 && row[0] > e {
			e = row[0]
		}
		// A scheduled predecessor's entry is its finish time, an
		// unscheduled one's the estimate written earlier in this pass.
		for _, p := range sh.preds[v] {
			if finish[p] > e {
				e = finish[p]
			}
		}
		finish[v] = e + sh.wcet[v]
		if e+sh.tail[v] > m {
			m = e + sh.tail[v]
		}
	}
	return m
}

// prune reports whether the admissible lower bound of st reaches best, the
// incumbent: the partial makespan, m — the path term carried down from the
// root (pathBound, childBound) — and every class's availability plus
// remaining work spread over its machines.
func (w *worker) prune(st *state, m, best int64) bool {
	return st.makespan >= best || m >= best || w.loadReaches(st, best, -1, 0, 0)
}

// childBound returns the path term of the child that branching c creates,
// from m, the path term of st, without applying c. The child's estimate
// pass would differ from st's in one input only: c's class front rises
// from its row's head to f′ — the second entry or c's finish, whichever
// is earlier (c's finish alone on a one-machine class). Every other node
// the child schedules (c itself, then the forced zero-WCET moves) lands at
// the finish st's pass estimated for it, so each open node's estimate
// either stays or rises through f′, and the child's maximum is m or f′
// plus the longest tail among the class's other open non-zero nodes. The
// terms m keeps for the nodes the child schedules are each covered by a
// child term or by the child's makespan, so prune decides as the full
// pass would (DESIGN.md §4.3).
//
//hetrta:hotpath
func (w *worker) childBound(st *state, m int64, c cand) int64 {
	sh := w.sh
	cls := sh.cls[c.v]
	row := st.avail[cls]
	front := c.ect
	if len(row) > 1 && row[1] < front {
		front = row[1]
	}
	if open := sh.rankMask[cls] &^ st.rmask &^ sh.rbit[c.v]; open != 0 {
		if t := front + sh.rankTail[bits.TrailingZeros64(open)]; t > m {
			m = t
		}
	}
	return m
}

// childPrunes is prune for the child that branching c creates, with mc its
// path term (childBound), decided on st before applyTo. The child's
// makespan is not needed: c's finish and every forced finish are at most
// their estimated start plus tail in st, so they never exceed mc. The
// child's loads differ from st's in c's class only, whose availability
// grows by c's finish minus the row's head while its remaining work drops
// by c's WCET.
//
//hetrta:hotpath
func (w *worker) childPrunes(st *state, c cand, mc, best int64) bool {
	if st.makespan >= best || mc >= best {
		return true
	}
	cls := w.sh.cls[c.v]
	return w.loadReaches(st, best, cls, c.est-st.avail[cls][0], w.sh.wcet[c.v])
}

// loadReaches reports whether some class's availability plus remaining
// work, spread over its machines, reaches best, with class cls's total
// shifted by shift and its remaining work lowered by used (cls -1 shifts
// nothing).
//
//hetrta:hotpath
func (w *worker) loadReaches(st *state, best int64, cls int, shift, used int64) bool {
	for c, row := range st.avail {
		total, rem := st.availSum[c]+st.rem[c], st.rem[c]
		if c == cls {
			total, rem = total+shift, rem-used
		}
		if rem > 0 && divCeil(total, int64(len(row))) >= best {
			return true
		}
	}
	return false
}

// signature builds the dominance vector for memoization: sorted per-class
// machine availability (classes in platform order), the finish times of
// the front — scheduled nodes that still have unscheduled successors — and
// the partial makespan. Two states with equal masks compare componentwise;
// a state dominated by a stored one cannot lead to a better completion.
// Front finishes are grouped by feed mask (sh.feedMasks order), in node-ID
// order within a group: the front, and so the layout, is a function of the
// mask, which is all componentwise comparison needs.
//
// Finish times are clamped up to the earliest machine availability of the
// classes the node's finish can actually influence (through zero-WCET
// chains): a class-c successor starts no earlier than class c's minimum
// availability, and the final makespan is at least every current
// availability, so a finish below the relevant floor can never matter.
// States differing only in such irrelevant finishes merge; this collapse is
// what keeps small-m instances tractable.
//
// The vector is written where the memo reads it (memo.sigBuf), so it is
// never copied; signature returns its length and saturating sum, which it
// accumulates as it writes.
//
//hetrta:hotpath
func (w *worker) signature(st *state) (int, int64) {
	sh := w.sh
	buf := sh.memo.sigBuf(w.maxSig)
	j := copy(buf, st.rows) // each row already sorted
	var sum int64
	for _, x := range buf[:j] {
		sum = satAdd(sum, x)
	}
	for g, nodes := range sh.feedNodes {
		nodes &= st.front
		if nodes == 0 {
			continue
		}
		floor := int64(math.MaxInt64)
		for mask := sh.feedMasks[g]; mask != 0; mask &= mask - 1 {
			if row := st.avail[bits.TrailingZeros64(mask)]; len(row) > 0 && row[0] < floor {
				floor = row[0]
			}
		}
		if floor == math.MaxInt64 {
			floor = sinkFloor(st)
		}
		for ; nodes != 0; nodes &= nodes - 1 {
			f := max(st.finish[bits.TrailingZeros64(nodes)], floor)
			buf[j] = f
			sum = satAdd(sum, f)
			j++
		}
	}
	buf[j] = st.makespan
	return j + 1, satAdd(sum, st.makespan)
}

// sinkFloor is the clamp floor of a finish that only feeds the makespan
// (zero-WCET sink chains): any current availability lower-bounds the final
// makespan, so the largest of the class minima is sound.
//
//hetrta:hotpath
func sinkFloor(st *state) int64 {
	floor := int64(math.MaxInt64)
	for _, row := range st.avail {
		if len(row) > 0 && (floor == math.MaxInt64 || row[0] > floor) {
			floor = row[0]
		}
	}
	return floor
}

// candidates collects the branchable nodes of st — unscheduled, non-zero
// WCET, every predecessor scheduled — in ascending ID order into lv.cands.
// A candidate's estimated start is pathBound's formula with every input
// exact: its class's earliest machine availability and its predecessors'
// finishes.
//
//hetrta:hotpath
func (w *worker) candidates(st *state, lv *level) []cand {
	sh := w.sh
	cands := lv.cands[:0]
	for open := st.ready; open != 0; open &= open - 1 {
		v := bits.TrailingZeros64(open)
		e := max(st.avail[sh.cls[v]][0], st.readyAt[v])
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

// search runs the branch-and-bound from the root state in w.cur. The root
// is the one state whose path term comes from the full estimate pass.
func (w *worker) search() {
	sh := w.sh
	st := &w.cur
	if st.mask == sh.full {
		sh.publish(st.makespan, st.order)
		return
	}
	if !sh.expand() {
		return
	}
	m := w.pathBound(st)
	if w.prune(st, m, sh.best) {
		return
	}
	w.dfs(0, m)
}

// dfs is the branch-and-bound search over schedule-generation orders, the
// hottest code in the package. It enters a state that has been counted as
// an expansion and survived the bound, with m its path term; it decides
// each child's bound before applying the child, so a pruned child costs
// O(classes) and no applyTo. A child that completes the schedule is not an
// expansion: it only offers its makespan as the incumbent.
//
//hetrta:hotpath
func (w *worker) dfs(depth int, m int64) {
	sh := w.sh
	st := &w.cur
	if k, sum := w.signature(st); sh.memo.dominated(st.mask, sum, k) {
		return
	}

	lv := &w.levels[depth]
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
	// lowest ID branches. Candidates are in ascending ID order, and being
	// interchangeable is an equivalence, so checking each candidate against
	// the ones kept before it is checking it against all lower IDs.
	// Filtered in place, and skipped when no ready node has a twin.
	if sh.twins&st.ready != 0 {
		keep := cands[:0]
		for _, c := range cands {
			dup := false
			if sh.twins&(1<<uint(c.v)) != 0 {
				for _, d := range keep {
					if sh.cls[d.v] == sh.cls[c.v] && sh.wcet[d.v] == sh.wcet[c.v] &&
						sh.succMask[d.v] == sh.succMask[c.v] && d.est == c.est {
						dup = true
						break
					}
				}
			}
			if !dup {
				keep = append(keep, c)
			}
		}
		cands = keep
	}
	sortCands(cands)
	// With one non-zero node left open, every child completes the schedule.
	last := sh.full&^st.mask&^sh.zeroMask == 1<<uint(cands[0].v)
	for _, c := range cands {
		if last {
			rec := w.applyTo(st, c.v)
			sh.publish(st.makespan, st.order)
			w.undo(rec)
			continue
		}
		if !sh.expand() {
			return
		}
		mc := w.childBound(st, m, c)
		if w.childPrunes(st, c, mc, sh.best) {
			continue
		}
		rec := w.applyTo(st, c.v)
		w.dfs(depth+1, mc)
		w.undo(rec)
		if sh.stop {
			return
		}
	}
}
