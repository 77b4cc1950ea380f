package taskset

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/rta"
)

// ErrNoSafeBound is wrapped by Eval.Bound when no safe analysis applies
// to the task's DAG on the probed platform (e.g. a multi-offload task whose
// classes are only partially backed by machines: Rhom is out per
// rta.RhomSafeFor, Rhet needs a single offload, TypedRhom needs every class
// populated). Policies treat it as a per-task rejection — the task cannot
// be certified on that platform — never as a fatal admission error.
var ErrNoSafeBound = errors.New("no safe response-time bound applies")

// Eval is one task's per-DAG bound evaluator, the form in which policies
// consume the paper's bounds. Construction runs the platform-independent
// prefix once — clone, transitive reduction, iterated Algorithm 1
// (rta.PrepareInput) — and records the report summary of the reduced
// graph. Bound and ClassVolumes are memoized per platform shape, so a
// task re-admitted in another set (the serving layer shares evals across
// admissions by task digest) or probed again across a sweep's utilization
// grid replays its values bit-identically: bounds are pure functions of
// the reduced graph and the platform's class counts. Safe for concurrent
// use.
type Eval struct {
	bounds []rta.Bound
	in     rta.BoundInput // Platform is set per Bound call
	sum    Summary

	mu   sync.Mutex
	memo map[string]evalBound
	vols map[string][]float64
}

// Summary describes the reduced graph an Eval analyzes. Reduction drops
// only edges, so the node count, volume and per-node classes are those of
// the input graph.
type Summary struct {
	Nodes        int
	Offloads     int
	Volume       int64
	CriticalPath int64
}

// Utilization returns Volume/period: the float SporadicTask.Utilization
// returns for the task the summary describes.
func (s Summary) Utilization(period int64) float64 {
	return float64(s.Volume) / float64(period)
}

// evalBound is one memoized Bound outcome: a value, or the deterministic
// no-safe-bound rejection (rebuilt with the probed platform, so the text
// matches a fresh evaluation byte for byte). Other errors — cancellations,
// analysis faults — are never memoized.
type evalBound struct {
	v      float64
	noSafe bool
}

// RTABounds is the bound list of an evaluation without a configured
// analyzer (the acceptance-ratio sweep): Rhom, Rhet and TypedRhom.
func RTABounds() []rta.Bound {
	return []rta.Bound{rta.RhomBound(), rta.RhetBound(), rta.TypedRhomBound()}
}

// NewEval prepares the evaluation of g over bounds. The input graph is
// not modified or retained; a nil or cyclic graph is an error.
func NewEval(bounds []rta.Bound, g *dag.Graph) (*Eval, error) {
	if g == nil {
		return nil, fmt.Errorf("taskset: nil graph")
	}
	in, _, err := rta.PrepareInput(g)
	if err != nil {
		return nil, err
	}
	w := in.Graph
	return &Eval{
		bounds: bounds,
		in:     in,
		sum: Summary{
			Nodes:        w.NumNodes(),
			Offloads:     len(w.OffloadNodes()),
			Volume:       w.Volume(),
			CriticalPath: w.CriticalPathLength(),
		},
		memo: make(map[string]evalBound),
		vols: make(map[string][]float64),
	}, nil
}

// Graph returns the transitively reduced work graph the bounds evaluate.
// It equals the input graph whenever the reduction removed no edge, so a
// caller holding both may keep this one alone. It must not be modified.
func (e *Eval) Graph() *dag.Graph { return e.in.Graph }

// Summary returns the report summary of the reduced graph.
func (e *Eval) Summary() Summary { return e.sum }

// noSafeBound is the served no-safe-bound rejection on p, the same text
// whether the verdict was just computed or replayed from the memo.
func noSafeBound(p platform.Platform) error {
	return fmt.Errorf("hetrta: %w on %v", ErrNoSafeBound, p)
}

// Bound returns a safe response-time bound for the task's DAG executing
// alone on p: the minimum over the bounds that apply (did not skip
// themselves), are not unsafe demonstrations, and are admission-safe for
// the graph on p (rta.AdmissionSafe). An error means no safe analysis
// applies (ErrNoSafeBound) or the analysis failed — never "the task misses
// its deadline", which is the policies' business.
func (e *Eval) Bound(ctx context.Context, p platform.Platform) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var kb [32]byte
	key := shapeKey(kb[:0], p)
	e.mu.Lock()
	defer e.mu.Unlock()
	// string(key) in the index expression compiles to an allocation-free
	// lookup — the memo hit, which every warm admission takes once per
	// task, builds its key entirely on the stack.
	if b, ok := e.memo[string(key)]; ok {
		if b.noSafe {
			return 0, noSafeBound(p)
		}
		return b.v, nil
	}
	if p.Cores() < 1 {
		return 0, fmt.Errorf("taskset: bound on %v: no host cores", p)
	}
	in := e.in
	in.Platform = p
	best := math.Inf(1)
	for _, b := range e.bounds {
		res, err := b.Compute(ctx, in)
		if err != nil {
			return 0, fmt.Errorf("taskset: bound %q: %w", b.Name(), err)
		}
		if res.Skipped != "" || res.Unsafe || !rta.AdmissionSafe(res.Name, in.Graph, p) {
			continue
		}
		best = math.Min(best, res.Value)
	}
	if math.IsInf(best, 1) {
		e.memo[string(key)] = evalBound{noSafe: true}
		return 0, noSafeBound(p)
	}
	e.memo[string(key)] = evalBound{v: best}
	return best, nil
}

// ClassVolumes returns the graph's per-class WCET volumes bucketed for p,
// memoized per platform shape like Bound: work of a class with no
// machines on p, or of the host class, lands in bucket 0 — it can only
// execute there. The slice is shared; callers must not modify it.
func (e *Eval) ClassVolumes(p platform.Platform) []float64 {
	var kb [32]byte
	key := shapeKey(kb[:0], p)
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.vols[string(key)]; ok {
		return v
	}
	nC := p.NumClasses()
	v := make([]float64, nC)
	for n := range e.in.Graph.EachNode() {
		c := n.Class
		if c < 1 || c >= nC || p.Count(c) < 1 {
			c = 0
		}
		v[c] += float64(n.WCET)
	}
	e.vols[string(key)] = v
	return v
}

// shapeKey appends p's class-count vector ("4" host-only, "4+1+2" host
// plus devices) to buf. Unlike Platform.String it ignores class names,
// which never enter bound math. Callers pass a stack buffer and index the
// memo maps with string(key), which the compiler turns into an
// allocation-free lookup.
func shapeKey(buf []byte, p platform.Platform) []byte {
	b := strconv.AppendInt(buf, int64(p.Cores()), 10)
	for c := 1; c < p.NumClasses(); c++ {
		b = append(b, '+')
		b = strconv.AppendInt(b, int64(p.Count(c)), 10)
	}
	return b
}
