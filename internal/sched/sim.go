// Package sched is a discrete-event simulator for work-conserving list
// scheduling of DAG tasks on heterogeneous platforms: a host with m
// identical cores plus any number of accelerator-device classes. It stands
// in for the GOMP (GCC OpenMP runtime) executions of Section 5.2: the paper
// itself evaluates by simulating the breadth-first work-conserving
// scheduler over node WCETs, which is exactly what this package does.
//
// Scheduling rules:
//
//   - Every node runs on a machine of its resource class: host nodes on
//     host cores, each offload node on its device class. When the platform
//     has no devices at all, offload nodes run on host cores (the paper's
//     Rhom baseline execution).
//   - Zero-WCET nodes (Sync nodes, dummy sources/sinks) complete the
//     instant they become ready and occupy no resource.
//   - Scheduling is work conserving (non-delay): whenever a resource is
//     free and a compatible node is ready, one is dispatched. The Policy
//     only chooses which.
package sched

import (
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Span records the execution of one node.
type Span struct {
	// Node is the node ID.
	Node int
	// Start and Finish delimit execution; Finish-Start equals the WCET.
	Start, Finish int64
	// Resource identifies where the node ran: resources are numbered by
	// class in platform order (0..Cores-1 are host cores, then each device
	// class's machines — see platform.Base); -1 marks a zero-WCET node that
	// completed instantly without occupying a resource.
	Resource int
}

// Result is a completed simulation.
type Result struct {
	// Makespan is the completion time of the last node (response time of
	// the single task instance).
	Makespan int64
	// Spans holds one Span per node, indexed by node ID.
	Spans []Span
	// Policy is the name of the policy that produced the schedule.
	Policy string
	// Platform is the platform simulated.
	Platform platform.Platform
}

// running is a node currently occupying a resource.
type running struct {
	node     int
	finish   int64
	resource int
}

// Scratch holds the per-simulation working buffers (in-degrees, ready
// queues, free lists, running set). A single Scratch reused across many
// simulations — as Sample and the exact solver's incumbent seeding do —
// makes each run allocate only its Result and Spans. The zero value is
// ready to use. A Scratch must not be shared between concurrent
// simulations.
type Scratch struct {
	indeg    []int
	released []bool
	cls      []int
	// ready and free hold one row per platform resource class.
	ready     [][]ReadyItem
	free      [][]int
	run       []running
	finishing []running
}

// intsReset returns s resized to n and zeroed.
func intsReset(s []int, n int) []int {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func boolsReset(s []bool, n int) []bool {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// Simulate executes one instance of task graph g on platform p under the
// given work-conserving policy and returns the schedule. The graph must be
// acyclic. Every node's resource class needs at least one machine on p,
// unless the platform is homogeneous (no devices at all), in which case
// offload nodes run on host cores.
func Simulate(g *dag.Graph, p platform.Platform, pol Policy) (*Result, error) {
	return SimulateWith(new(Scratch), g, p, pol)
}

// simRun is the live state of one simulation. Its methods replace what
// used to be function literals inside SimulateWith: release and dispatch
// closed over a dozen locals by reference, so every call heap-allocated
// the closures plus escaped copies of now/run/seq/completed — per-run
// garbage the Scratch contract explicitly promises to avoid.
type simRun struct {
	sc        *Scratch
	g         *dag.Graph
	pol       Policy
	spans     []Span
	run       []running
	now       int64
	seq       int
	completed int
}

// release marks v ready at time t, instantly completing zero-WCET nodes
// (and cascading through their successors). sc.released guards against
// double release when a cascade reaches a node before the seeding loop
// does.
//
//hetrta:hotpath
func (r *simRun) release(v int, t int64) {
	sc := r.sc
	if sc.released[v] {
		return
	}
	sc.released[v] = true
	if r.g.WCET(v) == 0 {
		r.spans[v] = Span{Node: v, Start: t, Finish: t, Resource: -1}
		r.completed++
		for _, s := range r.g.Succs(v) {
			sc.indeg[s]--
			if sc.indeg[s] == 0 {
				r.release(s, t)
			}
		}
		return
	}
	item := ReadyItem{Node: v, Seq: r.seq, ReadyAt: t}
	r.seq++
	sc.ready[sc.cls[v]] = append(sc.ready[sc.cls[v]], item)
}

// dispatch drains class c's ready queue onto its free machines at the
// current time.
//
//hetrta:hotpath
func (r *simRun) dispatch(c int) {
	sc := r.sc
	ready := sc.ready[c]
	free := sc.free[c]
	for len(free) > 0 && len(ready) > 0 {
		idx := r.pol.Pick(ready)
		item := ready[idx]
		ready = append(ready[:idx], ready[idx+1:]...)
		res := free[len(free)-1]
		free = free[:len(free)-1]
		fin := r.now + r.g.WCET(item.Node)
		r.spans[item.Node] = Span{Node: item.Node, Start: r.now, Finish: fin, Resource: res}
		r.run = append(r.run, running{node: item.Node, finish: fin, resource: res})
	}
	sc.ready[c] = ready
	sc.free[c] = free
}

// SimulateWith is Simulate using caller-provided working buffers, the
// low-allocation path for tight simulation loops.
//
//hetrta:hotpath
func SimulateWith(sc *Scratch, g *dag.Graph, p platform.Platform, pol Policy) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return &Result{Policy: pol.Name(), Platform: p}, nil
	}
	if _, ok := g.TopoOrder(); !ok {
		return nil, fmt.Errorf("sched: %w", dag.ErrCyclic)
	}
	pol.Prepare(g)

	// Resolve each node's machine class up front. On a homogeneous platform
	// (no devices at all) offload nodes run on host cores, the paper's Rhom
	// baseline execution; otherwise a node whose class has no machines is a
	// configuration error.
	homogeneous := p.Devices() == 0
	nClasses := p.NumClasses()
	cls := intsReset(sc.cls, n)
	sc.cls = cls
	for v := 0; v < n; v++ {
		c := g.Class(v)
		if homogeneous {
			c = 0
		}
		if g.WCET(v) > 0 && p.Count(c) == 0 {
			return nil, fmt.Errorf("sched: node %d needs resource class %d (%s) but platform %v has no such machine",
				v, c, p.ClassName(c), p)
		}
		cls[v] = c
	}

	sc.indeg = intsReset(sc.indeg, n)
	for v := 0; v < n; v++ {
		sc.indeg[v] = g.InDegree(v)
	}
	spans := make([]Span, n) //lint:alloc Spans is the returned result, owned by the caller

	// Per-class ready queues and free lists. Rows are reused across runs.
	if cap(sc.ready) < nClasses {
		sc.ready = slices.Grow(sc.ready[:0], nClasses)
	}
	if cap(sc.free) < nClasses {
		sc.free = slices.Grow(sc.free[:0], nClasses)
	}
	sc.ready = sc.ready[:nClasses]
	sc.free = sc.free[:nClasses]
	for c := 0; c < nClasses; c++ {
		sc.ready[c] = sc.ready[c][:0]
		count := p.Count(c)
		row := slices.Grow(sc.free[c][:0], count)
		base := p.Base(c)
		for i := count - 1; i >= 0; i-- {
			row = append(row, base+i) // pop from the back → lowest ID first
		}
		sc.free[c] = row
	}
	sc.released = boolsReset(sc.released, n)

	r := simRun{sc: sc, g: g, pol: pol, spans: spans, run: sc.run[:0]}

	// Seed sources in ID order so Seq is deterministic.
	for v := 0; v < n; v++ {
		if sc.indeg[v] == 0 {
			r.release(v, 0)
		}
	}

	for r.completed < n {
		for c := 0; c < nClasses; c++ {
			r.dispatch(c)
		}
		if len(r.run) == 0 {
			return nil, fmt.Errorf("sched: deadlock with %d/%d nodes completed", r.completed, n)
		}
		// Advance to the earliest finish; complete everything at that time.
		next := r.run[0].finish
		for _, rn := range r.run[1:] {
			if rn.finish < next {
				next = rn.finish
			}
		}
		r.now = next
		// Collect finishing nodes in node-ID order for determinism.
		finishing := sc.finishing[:0]
		keep := r.run[:0]
		for _, rn := range r.run {
			if rn.finish == r.now {
				finishing = append(finishing, rn)
			} else {
				keep = append(keep, rn)
			}
		}
		r.run = keep
		sc.finishing = finishing
		slices.SortFunc(finishing, func(a, b running) int { return a.node - b.node })
		for _, rn := range finishing {
			r.completed++
			c := sc.cls[rn.node]
			sc.free[c] = append(sc.free[c], rn.resource)
		}
		for _, rn := range finishing {
			for _, s := range g.Succs(rn.node) {
				sc.indeg[s]--
				if sc.indeg[s] == 0 {
					r.release(s, r.now)
				}
			}
		}
	}
	for c := 0; c < nClasses; c++ {
		sc.ready[c] = sc.ready[c][:0]
	}
	sc.run = r.run

	var makespan int64
	for v := 0; v < n; v++ {
		if spans[v].Finish > makespan {
			makespan = spans[v].Finish
		}
	}
	return &Result{Makespan: makespan, Spans: spans, Policy: pol.Name(), Platform: p}, nil
}

// Sample runs count simulations under Random policies with distinct seeds
// (derived from seed) and returns the best and worst observed results. It
// is the tool for exhibiting schedules like the paper's Figure 1(c), where
// an unlucky work-conserving order leaves the host idle while the
// accelerator runs. The working buffers are shared across iterations, so
// each run allocates only its result.
func Sample(g *dag.Graph, p platform.Platform, count int, seed int64) (best, worst *Result, err error) {
	if count < 1 {
		return nil, nil, fmt.Errorf("sched: Sample count %d < 1", count)
	}
	var sc Scratch
	for i := 0; i < count; i++ {
		r, err := SimulateWith(&sc, g, p, Random(seed+int64(i)))
		if err != nil {
			return nil, nil, err
		}
		if best == nil || r.Makespan < best.Makespan {
			best = r
		}
		if worst == nil || r.Makespan > worst.Makespan {
			worst = r
		}
	}
	return best, worst, nil
}
