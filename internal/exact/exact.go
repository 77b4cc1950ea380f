// Package exact computes the minimum makespan of a heterogeneous DAG task
// on a platform of machine classes (m host cores plus accelerator-device
// classes). It replaces the IBM CPLEX ILP of the paper's Section 5 (which
// minimizes heterogeneous DAG makespan to quantify the pessimism of
// Rhom/Rhet in Figure 7).
//
// # Why branch-and-bound over schedule-generation orders is exact
//
// For machines partitioned into classes (identical within a class) where
// every job needs exactly one machine of a fixed class, the serial
// schedule-generation scheme (SGS) — schedule jobs one at a time in a
// precedence-feasible order, each at max(ready time, earliest available
// machine of its class) — reaches an optimal schedule for some order. Proof
// sketch (DESIGN.md §4.3): take an optimal schedule S*, order jobs by
// non-decreasing S* start time, and run the SGS in that order. By induction
// every job starts no later than in S*: its predecessors finish no later
// (induction), and if all class machines were unavailable at the job's S*
// start time, the class-mates occupying them would also occupy them in S*,
// leaving no machine for the job in S* — contradiction. Hence exhaustive
// search over SGS orders, with admissible lower bounds for pruning, yields
// the exact optimum. The argument never uses the number of classes, so it
// holds unchanged for any class count.
//
// By default the branching additionally applies the Giffler–Thompson
// active-schedule restriction adapted to identical machine classes: let
// t* be the minimum earliest completion time (est + C) over all branchable
// candidates and c* the class achieving it; only candidates of class c*
// with est < t* are branched. Every active schedule — and for a regular
// objective like makespan some active schedule is optimal — is still
// reachable. The restriction is cross-validated against unrestricted
// search and against an independent brute-force enumerator of SGS orders
// in the tests; set Options.Unrestricted to disable it.
//
// The search further uses critical-path and per-class workload lower
// bounds, incumbent seeding from the scheduling-policy portfolio of package
// sched, interchangeable-job symmetry breaking, and memoized dominance on
// the set of scheduled jobs. Search effort is budgeted by node expansions;
// results report whether optimality was proven.
//
// The search is serial and runs on the caller's goroutine, so every field
// of a Result — Expansions and the schedule Spans witnesses included — is
// a pure function of the graph, the platform and the Options.
package exact

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Status reports how trustworthy a Result is.
type Status int

const (
	// Optimal means the makespan is proven minimal.
	Optimal Status = iota
	// Feasible means the search budget expired: Makespan is achievable,
	// and LowerBound ≤ optimum ≤ Makespan.
	Feasible
)

// String returns "optimal" or "feasible".
func (s Status) String() string {
	if s == Optimal {
		return "optimal"
	}
	return "feasible"
}

// Options tune the search.
type Options struct {
	// MaxExpansions caps branch-and-bound node expansions; 0 means the
	// DefaultMaxExpansions. The cap makes runtime deterministic (no
	// wall-clock dependence): the search aborts on the expansion after the
	// MaxExpansions-th.
	MaxExpansions int64
	// MemoLimit caps the number of dominance records kept; 0 means the
	// default. Lookups continue after the cap, insertions stop.
	MemoLimit int64
	// CtxCheckEvery is how many node expansions pass between context
	// cancellation checks; 0 means DefaultCtxCheckEvery. Cancellation is
	// therefore honored within at most CtxCheckEvery further expansions.
	CtxCheckEvery int64
	// Parallelism is ignored: the search is always serial.
	//
	// Deprecated: ignored; kept so existing callers still compile.
	Parallelism int
	// Unrestricted disables the Giffler–Thompson active-schedule branching
	// restriction, enumerating all semi-active SGS orders. Exponentially
	// slower; intended for cross-validating the restriction in tests.
	Unrestricted bool
}

// DefaultMaxExpansions is the node-expansion budget used when
// Options.MaxExpansions is zero.
const DefaultMaxExpansions = 500_000

const defaultMemoLimit int64 = 1 << 20

// DefaultCtxCheckEvery is the context poll interval (in node expansions)
// used when Options.CtxCheckEvery is zero: frequent enough that
// cancellation takes effect in well under a millisecond, rare enough to
// stay off the dfs profile.
const DefaultCtxCheckEvery = 1024

// Result is the outcome of MinMakespan.
type Result struct {
	// Makespan is the best (minimum found) completion time.
	Makespan int64
	// Status says whether Makespan is proven optimal.
	Status Status
	// LowerBound is a proven lower bound on the optimum (equals Makespan
	// when Status == Optimal).
	LowerBound int64
	// Expansions is the number of branch-and-bound nodes expanded;
	// MaxExpansions+1 when the budget ran out.
	Expansions int64
	// Spans is a feasible schedule achieving Makespan, indexed by node.
	Spans []sched.Span
}

// MinMakespan computes the minimum makespan of g on platform p. Graphs with
// more than 64 nodes are rejected (the search state uses a 64-bit mask);
// the paper's ILP comparison is likewise restricted to small tasks. The
// platform may have up to 64 resource classes.
//
// The search honors ctx: cancelling it makes MinMakespan return promptly
// with ctx's error (the branch-and-bound checks the context every
// Options.CtxCheckEvery node expansions), discarding any partial result.
func MinMakespan(ctx context.Context, g *dag.Graph, p platform.Platform, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return &Result{Status: Optimal}, nil
	}
	if n > 64 {
		return nil, fmt.Errorf("exact: %d nodes exceed the 64-node search limit", n)
	}
	nClasses := p.NumClasses()
	if nClasses > 64 {
		return nil, fmt.Errorf("exact: %d resource classes exceed the 64-class limit", nClasses)
	}
	topo, ok := g.TopoOrder()
	if !ok {
		return nil, fmt.Errorf("exact: %w", dag.ErrCyclic)
	}

	sh := &shared{
		ctx:          ctx,
		p:            p,
		n:            n,
		nClasses:     nClasses,
		full:         uint64(1)<<uint(n) - 1,
		maxExp:       opts.MaxExpansions,
		ctxEvery:     opts.CtxCheckEvery,
		unrestricted: opts.Unrestricted,
	}
	memoLimit := opts.MemoLimit
	if sh.maxExp == 0 {
		sh.maxExp = DefaultMaxExpansions
	}
	if memoLimit == 0 {
		memoLimit = defaultMemoLimit
	}
	if sh.ctxEvery == 0 {
		sh.ctxEvery = DefaultCtxCheckEvery
	}
	if err := sh.classify(g); err != nil {
		return nil, err
	}
	work := sh.work

	// Root lower bound: critical path and per-class load.
	rootLB := g.CriticalPathLength()
	for c := 0; c < nClasses; c++ {
		if work[c] > 0 && p.Count(c) > 0 {
			if lb := divCeil(work[c], int64(p.Count(c))); lb > rootLB {
				rootLB = lb
			}
		}
	}

	// Incumbent from the heuristic portfolio, computed before the search:
	// it is what a budget-aborted search reports (see below). No schedule
	// beats rootLB, so the portfolio stops at the first policy that reaches
	// it: later policies could only tie, and ties never replace the seed.
	seedBest := int64(math.MaxInt64)
	var seedSpans []sched.Span
	pols := append(sched.Heuristics(), sched.Random(1), sched.Random(2))
	var sc sched.Scratch
	for _, pol := range pols {
		r, err := sched.SimulateWith(&sc, g, p, pol)
		if err != nil {
			return nil, err
		}
		if r.Makespan < seedBest {
			seedBest = r.Makespan
			seedSpans = append(seedSpans[:0], r.Spans...)
		}
		if seedBest == rootLB {
			break
		}
	}

	res := &Result{LowerBound: rootLB}
	if seedBest == rootLB {
		res.Makespan = seedBest
		res.Status = Optimal
		res.Spans = seedSpans
		return res, nil
	}

	// Search-only state, built once the root has not closed the search.
	sh.flatten(g, topo)
	sh.memo = getMemo(memoLimit)

	// Branch and bound.
	sh.best = seedBest
	w := newWorker(sh)
	w.reset(&w.cur)
	w.search()
	// Not deferred: a search that panics leaves its memo to the collector.
	putMemo(sh.memo)
	if sh.err != nil {
		return nil, sh.err
	}

	if sh.budgetHit {
		// An aborted search reports the pre-search bracket, the portfolio
		// incumbent over the root lower bound, and drops any improvement
		// found before the cap.
		res.Makespan = seedBest
		res.Status = Feasible
		res.Spans = seedSpans
		res.Expansions = sh.maxExp + 1 // the expansion that crossed the cap
		return res, nil
	}
	res.Makespan = sh.best
	res.Status = Optimal
	res.LowerBound = res.Makespan
	res.Expansions = sh.spent
	if sh.bestOrder != nil {
		res.Spans = w.replay(sh.bestOrder)
	} else {
		res.Spans = seedSpans
	}
	return res, nil
}

func divCeil(a, b int64) int64 { return (a + b - 1) / b }

// shared is the search context: the immutable instance data plus the
// incumbent, the expansion budget, the dominance memo and the stop state.
// All of it is owned by the goroutine that called MinMakespan.
type shared struct {
	ctx context.Context
	p   platform.Platform

	n        int
	nClasses int
	full     uint64 // mask with all n node bits set

	// The instance, flattened once per search (flatten) so the kernel
	// reads plain slices and bitmasks: cls is each node's machine class
	// (with the homogeneous fallback applied), predMask/succMask the
	// direct predecessors/successors as node bitmasks, zeroMask the
	// zero-WCET nodes.
	topo     []int
	tail     []int64
	cls      []int
	wcet     []int64
	work     []int64 // total WCET per class
	preds    [][]int
	succs    [][]int
	predMask []uint64
	succMask []uint64
	zeroMask uint64
	// feedMasks holds each distinct feed mask once: the bitmask of classes
	// whose node starts a finish time can influence through zero-WCET
	// chains. feedNodes[i] is the nodes whose feed mask is feedMasks[i],
	// so signature computes each clamp floor once per call.
	feedMasks []uint64
	feedNodes []uint64
	// twins is the nodes that share their machine class, WCET and
	// successor set with another node: the only candidates the symmetry
	// filter has to check.
	twins uint64
	// The non-zero nodes ranked by tail, longest first (lowest ID on
	// ties): rbit[v] is 1 << v's rank (0 for a zero-WCET node),
	// rankTail[r] the tail of rank r, and rankMask[c] the ranks of class
	// c's nodes, so the lowest open bit of rankMask[c] is the class's
	// longest open tail.
	rbit     []uint64
	rankTail []int64
	rankMask []uint64

	maxExp       int64
	ctxEvery     int64
	unrestricted bool

	// spent counts expansions; the budget and the context poll cadence
	// both key off it.
	spent int64
	// best is the incumbent makespan and bestOrder the SGS order behind it,
	// replayed once into spans after the search.
	best      int64
	bestOrder []int
	// stop ends the search: budget exhaustion or a context error (err).
	stop      bool
	budgetHit bool
	err       error

	memo *memo
}

// classify assigns every node its machine class — the homogeneous fallback
// applied, resource-free nodes parked in the host class — and sums each
// class's work.
func (sh *shared) classify(g *dag.Graph) error {
	p := sh.p
	sh.cls = make([]int, sh.n)
	sh.work = make([]int64, sh.nClasses)
	homogeneous := p.Devices() == 0
	for v := 0; v < sh.n; v++ {
		c := g.Class(v)
		if homogeneous {
			c = 0
		}
		if g.WCET(v) > 0 && p.Count(c) == 0 {
			return fmt.Errorf("exact: node %d needs resource class %d (%s) but platform %v has no such machine",
				v, c, p.ClassName(c), p)
		}
		if p.Count(c) == 0 {
			c = 0 // resource-free node; park it in the host class
		}
		sh.cls[v] = c
		sh.work[c] += g.WCET(v)
	}
	return nil
}

// flatten copies the instance into the kernel's flat form. Only a search
// that did not close at the root pays for it.
func (sh *shared) flatten(g *dag.Graph, topo []int) {
	n := sh.n
	sh.topo = topo
	sh.tail = g.LongestToEnd()
	sh.wcet = make([]int64, n)
	sh.preds = make([][]int, n)
	sh.succs = make([][]int, n)
	sh.predMask = make([]uint64, n)
	sh.succMask = make([]uint64, n)
	for v := 0; v < n; v++ {
		sh.wcet[v] = g.WCET(v)
		if sh.wcet[v] == 0 {
			sh.zeroMask |= 1 << uint(v)
		}
		sh.preds[v] = g.Preds(v)
		sh.succs[v] = g.Succs(v)
		for _, u := range sh.preds[v] {
			sh.predMask[v] |= 1 << uint(u)
		}
		for _, w := range g.Succs(v) {
			sh.succMask[v] |= 1 << uint(w)
		}
	}
	// Influence masks for signature clamping: which classes' node starts
	// does v's finish time reach, through chains of zero-WCET nodes?
	feeds := make([]uint64, n)
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		for _, w := range g.Succs(v) {
			if sh.wcet[w] == 0 {
				feeds[v] |= feeds[w]
			} else {
				feeds[v] |= 1 << uint(sh.cls[w])
			}
		}
	}
	for v, fm := range feeds {
		fi := slices.Index(sh.feedMasks, fm)
		if fi < 0 {
			fi = len(sh.feedMasks)
			sh.feedMasks = append(sh.feedMasks, fm)
			sh.feedNodes = append(sh.feedNodes, 0)
		}
		sh.feedNodes[fi] |= 1 << uint(v)
	}
	for v := 0; v < n; v++ {
		for u := 0; u < v; u++ {
			if sh.cls[u] == sh.cls[v] && sh.wcet[u] == sh.wcet[v] && sh.succMask[u] == sh.succMask[v] {
				sh.twins |= 1<<uint(u) | 1<<uint(v)
			}
		}
	}
	ranked := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if sh.wcet[v] > 0 {
			ranked = append(ranked, v)
		}
	}
	// Stable, so equal tails keep ascending ID order.
	slices.SortStableFunc(ranked, func(a, b int) int { return cmp.Compare(sh.tail[b], sh.tail[a]) })
	sh.rbit = make([]uint64, n)
	sh.rankTail = make([]int64, len(ranked))
	sh.rankMask = make([]uint64, sh.nClasses)
	for r, v := range ranked {
		sh.rbit[v] = 1 << uint(r)
		sh.rankTail[r] = sh.tail[v]
		sh.rankMask[sh.cls[v]] |= 1 << uint(r)
	}
}

// expand counts one node expansion against the budget and polls the
// context every ctxEvery expansions; it reports false once the search has
// to stop.
//
//hetrta:hotpath
func (sh *shared) expand() bool {
	sh.spent++
	if sh.spent > sh.maxExp {
		sh.budgetHit, sh.stop = true, true
		return false
	}
	if sh.spent%sh.ctxEvery == 0 {
		if err := sh.ctx.Err(); err != nil {
			sh.err, sh.stop = err, true
			return false
		}
	}
	return true
}

// publish installs makespan ms, achieved by the SGS order, as the incumbent
// if it improves on it.
func (sh *shared) publish(ms int64, order []int) {
	if ms >= sh.best {
		return
	}
	sh.best = ms
	sh.bestOrder = append(sh.bestOrder[:0], order...)
}
