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
// search and against the independent ILP oracle in the tests; set
// Options.Unrestricted to disable it.
//
// The search further uses critical-path and per-class workload lower
// bounds, incumbent seeding from the scheduling-policy portfolio of package
// sched, interchangeable-job symmetry breaking, and memoized dominance on
// the set of scheduled jobs. Search effort is budgeted by node expansions;
// results report whether optimality was proven.
//
// # Parallel search
//
// Options.Parallelism ≥ 2 splits the search tree across a work-stealing
// pool (DESIGN.md §13): workers hand off frontier prefixes above a cutoff
// depth through bounded per-worker deques and run the in-place
// applyTo/undo DFS below it, sharing the incumbent through an atomic
// compare-and-swap, the dominance memo through mutex-guarded shards, and
// the expansion budget through one atomic counter. The result is
// deterministic at any parallelism — a completed search proves the same
// optimum, and a budget-aborted search reports the same heuristic
// incumbent and root lower bound — while the search path (and with it
// Result.Expansions and the specific optimal schedule witnessed by
// Result.Spans) is free to vary between runs at Parallelism ≥ 2.
package exact

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
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
	// wall-clock dependence). The budget is shared: at any Parallelism the
	// pool as a whole expands at most MaxExpansions nodes (plus at most one
	// in-flight expansion per worker) before aborting.
	MaxExpansions int64
	// MemoLimit caps the number of dominance records kept; 0 means the
	// default. Lookups continue after the cap, insertions stop. The cap is
	// enforced globally across memo shards at any Parallelism.
	MemoLimit int64
	// CtxCheckEvery is how many node expansions pass between context
	// cancellation checks; 0 means DefaultCtxCheckEvery. Cancellation is
	// therefore honored within at most CtxCheckEvery further expansions —
	// the expansion counter is shared, so the window holds globally even
	// when expansions are split across workers.
	CtxCheckEvery int64
	// Parallelism is the number of branch-and-bound workers; 0 and 1 both
	// run the serial in-place search. Results are deterministic at any
	// value: a completed search returns the same proven optimum, and a
	// budget-aborted search returns the same heuristic bracket. The search
	// path — and therefore Expansions and which optimal schedule Spans
	// witnesses — may vary at Parallelism ≥ 2.
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

// maxWorkers caps Options.Parallelism: beyond the 64-node search limit
// there are never enough frontier subtrees to feed more workers.
const maxWorkers = 64

// Result is the outcome of MinMakespan.
type Result struct {
	// Makespan is the best (minimum found) completion time.
	Makespan int64
	// Status says whether Makespan is proven optimal.
	Status Status
	// LowerBound is a proven lower bound on the optimum (equals Makespan
	// when Status == Optimal).
	LowerBound int64
	// Expansions is the number of branch-and-bound nodes expanded. It is
	// path-dependent and therefore only reproducible at Parallelism ≤ 1
	// (budget-aborted searches report the exhausted budget at any
	// parallelism).
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
func MinMakespan(ctx context.Context, g *dag.Graph, p sched.Platform, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("exact: negative parallelism %d", opts.Parallelism)
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
	workers := opts.Parallelism
	if workers == 0 {
		workers = 1
	}
	if workers > maxWorkers {
		workers = maxWorkers
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

	// Incumbent from the heuristic portfolio. The seed is computed before
	// the search, so it is identical at every parallelism — it is what a
	// budget-aborted search reports (see below). No schedule beats rootLB,
	// so the portfolio stops at the first policy that reaches it: later
	// policies could only tie, and ties never replace the seed.
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
	if workers <= 1 {
		sh.memo = getSerialMemo(memoLimit)
	} else {
		sh.memo = newMemo(memoLimit, memoShardCount(workers))
	}

	// Branch and bound.
	sh.best.Store(seedBest)
	w0 := newWorker(sh, 0)
	if workers <= 1 {
		w0.runTask(nil)
	} else {
		sh.pool = newPool(workers)
		sh.spawnDepth = spawnDepthFor(n, workers)
		sh.backlog = int64(4 * workers)
		sh.pool.push(0, []int{}) // root prefix
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			w := w0
			if i > 0 {
				w = newWorker(sh, i)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A worker panic must not kill the process from a bare
				// goroutine: the serving layer contains handler panics to a
				// single 503, and the exact stage runs inside a handler.
				// Record the first panic, halt the pool, and re-raise it on
				// the caller's goroutine below.
				defer func() {
					if r := recover(); r != nil {
						sh.recordPanic(r)
					}
				}()
				w.loop()
			}()
		}
		wg.Wait()
		if pv := sh.panicVal; pv != nil {
			panic(fmt.Sprintf("exact: search worker panicked: %v", pv))
		}
	}
	if workers <= 1 {
		// Pooled only after the search returned normally: a panic unwinding
		// out of dominated could leave the shard locked, so that memo is
		// dropped instead.
		putSerialMemo(sh.memo)
	}
	if sh.err != nil {
		return nil, sh.err
	}

	if sh.budgetHit.Load() {
		// Deterministic bracket: which node the budget ran out on — and at
		// Parallelism ≥ 2, whatever improvements happened to land before it
		// did — depends on the search path, so an aborted search discards
		// the path entirely and reports the pre-search seed. Every
		// parallelism level therefore returns byte-identical budget-capped
		// results, which is what lets the serving layer cache and replicate
		// them (DESIGN.md §13.4).
		res.Makespan = seedBest
		res.Status = Feasible
		res.Spans = seedSpans
		res.Expansions = sh.maxExp + 1 // the expansion that crossed the cap
		return res, nil
	}
	res.Makespan = sh.best.Load()
	res.Status = Optimal
	res.LowerBound = res.Makespan
	res.Expansions = sh.spent.Load()
	if sh.bestOrder != nil {
		res.Spans = w0.replay(sh.bestOrder)
	} else {
		res.Spans = seedSpans
	}
	return res, nil
}

func divCeil(a, b int64) int64 { return (a + b - 1) / b }

// spawnDepthFor is the frontier cutoff: prefixes shorter than this may be
// handed to the pool, deeper subtrees are always inlined. Deep enough that
// the early levels split into far more tasks than workers, shallow enough
// that each task amortizes its replay cost over an exponentially larger
// subtree.
func spawnDepthFor(n, workers int) int {
	d := 4 + bits.Len(uint(workers))
	if d > n {
		d = n
	}
	return d
}

// shared is the cross-worker search context: the immutable instance data
// plus everything the workers share — the atomic incumbent, the atomic
// expansion budget, the sharded dominance memo, and the stop machinery.
// At Parallelism ≤ 1 a single worker uses the same structure (pool == nil)
// and the atomics are uncontended, keeping the serial search's expansion
// accounting, poll timing, and memo decisions identical to what they were
// before the pool existed.
type shared struct {
	ctx context.Context
	p   sched.Platform

	n        int
	nClasses int
	full     uint64 // mask with all n node bits set

	// The instance, flattened once per search (flatten) so the kernel
	// reads plain slices and bitmasks: cls is each node's machine class
	// (with the homogeneous fallback applied), predMask/succMask the
	// direct predecessors/successors as node bitmasks, zeroMask the
	// zero-WCET nodes.
	topo     []int
	tbit     []uint64 // tbit[v] is 1 << (v's position in topo)
	tail     []int64
	cls      []int
	wcet     []int64
	work     []int64 // total WCET per class
	preds    [][]int
	predMask []uint64
	succMask []uint64
	zeroMask uint64
	// feedMasks[feedIdx[v]] is the bitmask of classes whose node starts
	// v's finish time can influence through zero-WCET chains; feedMasks
	// holds each distinct mask once, so signature computes each clamp
	// floor once per call.
	feedIdx   []int
	feedMasks []uint64

	maxExp       int64
	ctxEvery     int64
	unrestricted bool

	// spent counts expansions across all workers; the budget and the
	// context poll cadence both key off it, so bounded-abort and
	// cancellation windows hold globally, not per worker.
	spent atomic.Int64
	// best is the incumbent makespan: CAS-published on improvement,
	// lock-free-read in the pruning test.
	best atomic.Int64
	// stop halts every worker: budget exhaustion, context error, or a
	// worker panic.
	stop      atomic.Bool
	budgetHit atomic.Bool

	errMu    sync.Mutex
	err      error // first context error, returned to the caller
	panicVal any   // first worker panic, re-raised on the caller goroutine

	// bestOrder is the SGS order behind best, replayed once into spans
	// after the search; bestOrderMakespan guards against an older CAS
	// winner overwriting a newer, better order.
	bestMu            sync.Mutex
	bestOrder         []int
	bestOrderMakespan int64

	memo *memo

	// pool is nil at Parallelism ≤ 1; spawnDepth and backlog throttle the
	// frontier handoff (worker.offload).
	pool       *pool
	spawnDepth int
	backlog    int64
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
	sh.tbit = make([]uint64, n)
	for i, v := range topo {
		sh.tbit[v] = 1 << uint(i)
	}
	sh.tail = g.LongestToEnd()
	sh.wcet = make([]int64, n)
	sh.preds = make([][]int, n)
	sh.predMask = make([]uint64, n)
	sh.succMask = make([]uint64, n)
	for v := 0; v < n; v++ {
		sh.wcet[v] = g.WCET(v)
		if sh.wcet[v] == 0 {
			sh.zeroMask |= 1 << uint(v)
		}
		sh.preds[v] = g.Preds(v)
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
	sh.feedIdx = make([]int, n)
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
		}
		sh.feedIdx[v] = fi
	}
}

// publish installs makespan ms, achieved by the SGS order, as the incumbent
// if it improves on it. The CAS loop keeps best monotonically decreasing
// under concurrent improvements; the order behind the final best value is
// always retained because every successful CAS re-checks under bestMu.
func (sh *shared) publish(ms int64, order []int) {
	//lint:polled CAS retry, not a search loop: every iteration either returns (no longer an improvement) or swaps and exits, so it runs at most once per concurrent improvement
	for {
		cur := sh.best.Load()
		if ms >= cur {
			return
		}
		if sh.best.CompareAndSwap(cur, ms) {
			break
		}
	}
	sh.bestMu.Lock()
	if sh.bestOrder == nil || ms < sh.bestOrderMakespan {
		sh.bestOrderMakespan = ms
		sh.bestOrder = append(sh.bestOrder[:0], order...)
	}
	sh.bestMu.Unlock()
}

// halt stops every worker without recording an error (budget exhaustion,
// panic propagation).
func (sh *shared) halt() {
	sh.stop.Store(true)
	if sh.pool != nil {
		sh.pool.close()
	}
}

// fail records the first context error and halts the pool; idle workers
// are woken by the close broadcast.
func (sh *shared) fail(err error) {
	sh.errMu.Lock()
	if sh.err == nil {
		sh.err = err
	}
	sh.errMu.Unlock()
	sh.halt()
}

// recordPanic stores the first worker panic and halts the pool so the
// remaining workers drain instead of racing a crashing process.
func (sh *shared) recordPanic(v any) {
	sh.errMu.Lock()
	if sh.panicVal == nil {
		sh.panicVal = v
	}
	sh.errMu.Unlock()
	sh.halt()
}
