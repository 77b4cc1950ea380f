package exact

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgen"
)

// kernelInstances draws small graphs with narrow WCET ranges (so machine
// availabilities tie often) and pairs them with platforms that have
// several machines per class, one offload per graph and, on the
// three-class platform, a second offload on the other device class. Each
// comes with the search context built the way MinMakespan builds it.
func kernelInstances(t *testing.T, count int) []*shared {
	t.Helper()
	gen := taskgen.MustNew(taskgen.Params{
		PPar: 0.6, NPar: 5, MaxDepth: 2, NMin: 4, NMax: 20, CMin: 1, CMax: 4,
	}, 99)
	threeClass := platform.New(
		platform.ResourceClass{Name: "host", Count: 3},
		platform.ResourceClass{Name: "gpu", Count: 2},
		platform.ResourceClass{Name: "fpga", Count: 2},
	)
	plats := []platform.Platform{platform.Homogeneous(3), platform.Hetero(2), platform.Hetero(4), threeClass}
	var out []*shared
	for i := 0; len(out) < count; i++ {
		g, err := gen.Graph()
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		taskgen.SetOffload(g, i%n, 0.3)
		if i%3 == 0 {
			g.SetWCET((i+1)%n, 0)
		}
		p := plats[i%len(plats)]
		if p.NumClasses() == 3 {
			taskgen.SetOffloadClass(g, (i+n/2)%n, 0.2, 2)
		}
		out = append(out, kernelShared(t, g, p))
	}
	return out
}

// kernelShared builds the search context MinMakespan would, minus the
// seed, with a fresh memo.
func kernelShared(t *testing.T, g *dag.Graph, p platform.Platform) *shared {
	t.Helper()
	n := g.NumNodes()
	sh := &shared{
		ctx:      context.Background(),
		p:        p,
		n:        n,
		nClasses: p.NumClasses(),
		full:     uint64(1)<<uint(n) - 1,
		maxExp:   math.MaxInt64,
		ctxEvery: DefaultCtxCheckEvery,
	}
	if err := sh.classify(g); err != nil {
		t.Fatal(err)
	}
	topo, ok := g.TopoOrder()
	if !ok {
		t.Fatal("cyclic graph")
	}
	sh.flatten(g, topo)
	sh.memo = newMemo(math.MaxInt64)
	return sh
}

// refState is the search state under the pre-sorted-row rule: per-class
// availability indexed by machine, the earliest machine found by a linear
// scan (lowest index on ties). It is kept deliberately naive.
type refState struct {
	mask   uint64
	finish []int64
	avail  [][]int64
	spans  []sched.Span
}

func newRefState(sh *shared) *refState {
	r := &refState{finish: make([]int64, sh.n), avail: make([][]int64, sh.nClasses), spans: make([]sched.Span, sh.n)}
	for c := range r.avail {
		r.avail[c] = make([]int64, sh.p.Count(c))
	}
	r.scheduleFree(sh)
	return r
}

func (r *refState) clone() *refState {
	c := &refState{mask: r.mask, finish: slices.Clone(r.finish), spans: slices.Clone(r.spans)}
	for _, row := range r.avail {
		c.avail = append(c.avail, slices.Clone(row))
	}
	return c
}

func (r *refState) ready(sh *shared, v int) int64 {
	var t int64
	for _, p := range sh.preds[v] {
		t = max(t, r.finish[p])
	}
	return t
}

func (r *refState) scheduleFree(sh *shared) {
	for changed := true; changed; {
		changed = false
		for v := 0; v < sh.n; v++ {
			if sh.wcet[v] != 0 || r.mask&(1<<uint(v)) != 0 || sh.predMask[v]&^r.mask != 0 {
				continue
			}
			t := r.ready(sh, v)
			r.mask |= 1 << uint(v)
			r.finish[v] = t
			r.spans[v] = sched.Span{Node: v, Start: t, Finish: t, Resource: -1}
			changed = true
		}
	}
}

func (r *refState) apply(sh *shared, v int) {
	c := sh.cls[v]
	avail := r.avail[c]
	mi := 0
	for i := 1; i < len(avail); i++ {
		if avail[i] < avail[mi] {
			mi = i
		}
	}
	start := max(r.ready(sh, v), avail[mi])
	fin := start + sh.wcet[v]
	avail[mi] = fin
	r.mask |= 1 << uint(v)
	r.finish[v] = fin
	r.spans[v] = sched.Span{Node: v, Start: start, Finish: fin, Resource: sh.p.Base(c) + mi}
	r.scheduleFree(sh)
}

// checkAgainstRef compares the worker's in-place state with the reference:
// mask, finish times of scheduled nodes, spans (which carry the chosen
// machine ids), the rank, front and ready masks, the sorted rows and the
// maintained sums.
func checkAgainstRef(t *testing.T, sh *shared, st *state, ref *refState, where string) {
	t.Helper()
	if st.mask != ref.mask {
		t.Fatalf("%s: mask %b, reference %b", where, st.mask, ref.mask)
	}
	for done := st.mask; done != 0; done &= done - 1 {
		v := bits.TrailingZeros64(done)
		if st.finish[v] != ref.finish[v] {
			t.Fatalf("%s: node %d finishes at %d, reference %d", where, v, st.finish[v], ref.finish[v])
		}
		if st.spans != nil && st.spans[v] != ref.spans[v] {
			t.Fatalf("%s: node %d span %+v, reference %+v", where, v, st.spans[v], ref.spans[v])
		}
	}
	var rmask uint64
	for v := 0; v < sh.n; v++ {
		if st.mask&(1<<uint(v)) != 0 {
			rmask |= sh.rbit[v]
		}
	}
	if st.rmask != rmask {
		t.Fatalf("%s: rmask %b, want %b", where, st.rmask, rmask)
	}
	var front uint64
	for v := 0; v < sh.n; v++ {
		if st.mask&(1<<uint(v)) != 0 && sh.succMask[v]&^st.mask != 0 {
			front |= 1 << uint(v)
		}
	}
	if st.front != front {
		t.Fatalf("%s: front %b, want %b", where, st.front, front)
	}
	var ready uint64
	for v := 0; v < sh.n; v++ {
		if st.mask&(1<<uint(v)) == 0 && sh.predMask[v]&^st.mask == 0 {
			ready |= 1 << uint(v)
		}
	}
	if st.ready != ready || ready&sh.zeroMask != 0 {
		t.Fatalf("%s: ready %b, want %b with no zero-WCET node", where, st.ready, ready)
	}
	for c, avail := range ref.avail {
		var sum, rem int64
		for i, a := range avail {
			sum += a
			// Machine i must sit where (a, i) sorts among the class.
			pos := 0
			for j, b := range avail {
				if b < a || b == a && j < i {
					pos++
				}
			}
			if st.avail[c][pos] != a || st.ids[c][pos] != i {
				t.Fatalf("%s: class %d row %v ids %v, reference availability %v", where, c, st.avail[c], st.ids[c], avail)
			}
		}
		for v := 0; v < sh.n; v++ {
			if sh.cls[v] == c && st.mask&(1<<uint(v)) == 0 {
				rem += sh.wcet[v]
			}
		}
		if st.availSum[c] != sum || st.rem[c] != rem {
			t.Fatalf("%s: class %d sum %d rem %d, reference %d and %d", where, c, st.availSum[c], st.rem[c], sum, rem)
		}
	}
}

// branchable lists the nodes applyTo may schedule next.
func branchable(sh *shared, mask uint64) []int {
	var out []int
	for open := sh.full &^ mask &^ sh.zeroMask; open != 0; open &= open - 1 {
		v := bits.TrailingZeros64(open)
		if sh.predMask[v]&^mask == 0 {
			out = append(out, v)
		}
	}
	return out
}

// TestSortedRowsMatchMinScan drives random applyTo/undo sequences on the
// sorted-row state and on the min-scan reference, comparing them after
// every step, the replay of every complete order, and states reset and
// replayed from every prefix of the walk on a worker left dirty by the
// prefix before: reset must clear everything an earlier search wrote.
func TestSortedRowsMatchMinScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i, sh := range kernelInstances(t, 160) {
		w := newWorker(sh)
		st := &w.cur
		st.spans = make([]sched.Span, sh.n)
		w.reset(st)
		ref := newRefState(sh)
		checkAgainstRef(t, sh, st, ref, "root")

		var recs []undoRec
		refs := []*refState{ref}
		var prefixes [][]int
		for step := 0; step < 4*sh.n; step++ {
			open := branchable(sh, st.mask)
			if len(open) == 0 || (len(recs) > 0 && rng.Intn(3) == 0) {
				if len(recs) == 0 {
					break
				}
				if len(open) == 0 {
					got := w.replay(st.order)
					if want := refs[len(refs)-1].spans; !slices.Equal(got, want) {
						t.Fatalf("instance %d: replay of %v\n got %v\nwant %v", i, st.order, got, want)
					}
				}
				w.undo(recs[len(recs)-1])
				recs, refs = recs[:len(recs)-1], refs[:len(refs)-1]
				checkAgainstRef(t, sh, st, refs[len(refs)-1], "after undo")
				continue
			}
			v := open[rng.Intn(len(open))]
			recs = append(recs, w.applyTo(st, v))
			next := refs[len(refs)-1].clone()
			next.apply(sh, v)
			refs = append(refs, next)
			checkAgainstRef(t, sh, st, next, "after apply")
			prefixes = append(prefixes, slices.Clone(st.order))
		}

		dirty := newWorker(sh)
		for _, prefix := range prefixes {
			dirty.reset(&dirty.cur)
			want := newRefState(sh)
			for _, v := range prefix {
				dirty.applyTo(&dirty.cur, v)
				want.apply(sh, v)
			}
			checkAgainstRef(t, sh, &dirty.cur, want, "replayed prefix")
		}
	}
}

// fullBound is the reference pruning bound: the maximum of the partial
// makespan, every unscheduled node's estimated start plus its remaining
// critical path, and every class's availability plus remaining work spread
// over its machines, each input recomputed from scratch. It also returns
// the start estimates.
func fullBound(sh *shared, st *state) (lb int64, est []int64) {
	classMin := make([]int64, sh.nClasses)
	sum := make([]int64, sh.nClasses)
	rem := make([]int64, sh.nClasses)
	for c, row := range st.avail {
		classMin[c] = math.MaxInt64
		for _, a := range row {
			classMin[c] = min(classMin[c], a)
			sum[c] += a
		}
	}
	lb = st.makespan
	finish := slices.Clone(st.finish)
	est = make([]int64, sh.n)
	for _, v := range sh.topo {
		if st.mask&(1<<uint(v)) != 0 {
			continue
		}
		c := sh.cls[v]
		var e int64
		if sh.wcet[v] > 0 && classMin[c] != math.MaxInt64 {
			e = classMin[c]
		}
		for _, p := range sh.preds[v] {
			e = max(e, finish[p])
		}
		est[v] = e
		finish[v] = e + sh.wcet[v]
		lb = max(lb, e+sh.tail[v])
		rem[c] += sh.wcet[v]
	}
	for c := range rem {
		if rem[c] > 0 && len(st.avail[c]) > 0 {
			lb = max(lb, divCeil(sum[c]+rem[c], int64(len(st.avail[c]))))
		}
	}
	return lb, est
}

// bestsAround lists incumbents just below, at and above lb, plus one
// random one on each side.
func bestsAround(rng *rand.Rand, lb int64) []int64 {
	return []int64{lb - 1, lb, lb + 1, lb + 1 + rng.Int63n(20), 1 + rng.Int63n(lb+1)}
}

// TestPruneMatchesFullBound walks random branching sequences and
// checks, at every state, that the bound dfs carries decides exactly as
// lb >= best with the full bound recomputed from scratch, both on the
// state itself (prune) and for every child decided before it is applied
// (childPrunes), for incumbents below, at and above the bound. It also
// checks that the carried path term agrees with a fresh pathBound up to
// the makespan, and that candidates carry the estimated starts of the
// full pass.
func TestPruneMatchesFullBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for i, sh := range kernelInstances(t, 160) {
		w := newWorker(sh)
		st := &w.cur
		var lv level
		for walk := 0; walk < 4; walk++ {
			w.reset(st)
			m := w.pathBound(st)
			for {
				lb, wantEst := fullBound(sh, st)
				for _, best := range bestsAround(rng, lb) {
					if got := w.prune(st, m, best); got != (lb >= best) {
						t.Fatalf("instance %d, mask %b: prune(best=%d) = %v, full bound %d", i, st.mask, best, got, lb)
					}
					checked++
				}
				if pass := w.pathBound(st); max(st.makespan, pass) != max(st.makespan, m) {
					t.Fatalf("instance %d, mask %b: carried path term %d, full pass %d, makespan %d", i, st.mask, m, pass, st.makespan)
				}
				cands := w.candidates(st, &lv)
				if len(cands) != len(branchable(sh, st.mask)) {
					t.Fatalf("instance %d, mask %b: %d candidates, %d branchable", i, st.mask, len(cands), len(branchable(sh, st.mask)))
				}
				if len(cands) == 0 {
					break
				}
				for _, c := range cands {
					// st.finish holds the pass's estimated finish of every
					// unscheduled node.
					if pass := st.finish[c.v] - sh.wcet[c.v]; c.est != pass || c.est != wantEst[c.v] || c.ect != c.est+sh.wcet[c.v] {
						t.Fatalf("instance %d, mask %b: candidate %+v, pass est %d, reference %d", i, st.mask, c, pass, wantEst[c.v])
					}
				}
				for _, c := range cands {
					mc := w.childBound(st, m, c)
					rec := w.applyTo(st, c.v)
					childLB, _ := fullBound(sh, st)
					w.undo(rec)
					for _, best := range bestsAround(rng, childLB) {
						if got := w.childPrunes(st, c, mc, best); got != (childLB >= best) {
							t.Fatalf("instance %d, mask %b, child %d: childPrunes(best=%d) = %v, full bound %d", i, st.mask, c.v, best, got, childLB)
						}
						checked++
					}
				}
				c := cands[rng.Intn(len(cands))]
				m = w.childBound(st, m, c)
				w.applyTo(st, c.v)
			}
		}
	}
	if checked < 10_000 {
		t.Fatalf("only %d prune decisions checked", checked)
	}
}

// TestBudgetBoundary pins that every expansion counts against the budget,
// children pruned before they are applied included: a search that proves
// its optimum in E expansions still proves it with MaxExpansions = E, and
// caps with MaxExpansions = E-1.
func TestBudgetBoundary(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Small(8, 24), 2)
	p := platform.Hetero(4)
	checked := 0
	for i := 0; i < 200 && checked < 20; i++ {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.TransitiveReduction(); err != nil {
			t.Fatal(err)
		}
		r, err := MinMakespan(context.Background(), g, p, Options{MaxExpansions: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		e := r.Expansions
		if r.Status != Optimal || e < 2 {
			continue
		}
		checked++
		at, err := MinMakespan(context.Background(), g, p, Options{MaxExpansions: e})
		if err != nil {
			t.Fatal(err)
		}
		if at.Status != Optimal || at.Expansions != e || at.Makespan != r.Makespan {
			t.Fatalf("graph %d: budget %d gives %v after %d expansions (makespan %d), want optimal %d after %d",
				i, e, at.Status, at.Expansions, at.Makespan, r.Makespan, e)
		}
		below, err := MinMakespan(context.Background(), g, p, Options{MaxExpansions: e - 1})
		if err != nil {
			t.Fatal(err)
		}
		if below.Status != Feasible || below.Expansions != e {
			t.Fatalf("graph %d: budget %d gives %v after %d expansions, want feasible after %d", i, e-1, below.Status, below.Expansions, e)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d searches checked", checked)
	}
}
