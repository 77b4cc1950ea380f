package sched

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dag"
	"repro/internal/platform"
)

// effectiveClass returns the machine class node v occupies on platform p:
// its own class, or the host class when the platform is homogeneous (no
// devices at all), mirroring the simulator's fallback.
func effectiveClass(g *dag.Graph, p platform.Platform, v int) int {
	if p.Devices() == 0 {
		return 0
	}
	return g.Class(v)
}

// Validate checks that the schedule in r is feasible for graph g:
//
//   - every node has a span with Finish − Start = WCET;
//   - precedence: for every edge (u,v), Start(v) ≥ Finish(u);
//   - resource exclusivity: spans sharing a resource never overlap;
//   - placement: every node ran on a machine of its resource class (host
//     nodes on cores, each offload node on its device class; on a
//     homogeneous platform everything runs on cores), zero-WCET nodes
//     anywhere;
//   - capacity: resource indices within the platform.
//
// It is used by the test suite to cross-check every simulation and by the
// exact solver's self-checks.
func (r *Result) Validate(g *dag.Graph) error {
	if len(r.Spans) != g.NumNodes() {
		return fmt.Errorf("sched: %d spans for %d nodes", len(r.Spans), g.NumNodes())
	}
	p := r.Platform
	for v := 0; v < g.NumNodes(); v++ {
		s := r.Spans[v]
		if s.Node != v {
			return fmt.Errorf("sched: span %d labeled %d", v, s.Node)
		}
		if s.Finish-s.Start != g.WCET(v) {
			return fmt.Errorf("sched: node %d ran %d, WCET %d", v, s.Finish-s.Start, g.WCET(v))
		}
		if s.Start < 0 {
			return fmt.Errorf("sched: node %d starts at %d", v, s.Start)
		}
		if s.Finish > r.Makespan {
			return fmt.Errorf("sched: node %d finishes at %d beyond makespan %d", v, s.Finish, r.Makespan)
		}
		switch {
		case g.WCET(v) == 0:
			// Instant nodes carry Resource -1; nothing to check.
		case s.Resource < 0 || s.Resource >= p.Total():
			return fmt.Errorf("sched: node %d on resource %d outside platform %v", v, s.Resource, p)
		case p.ClassOf(s.Resource) != effectiveClass(g, p, v):
			return fmt.Errorf("sched: node %d (class %d) ran on resource %d of class %d",
				v, effectiveClass(g, p, v), s.Resource, p.ClassOf(s.Resource))
		}
	}
	for u, v := range g.EachEdge() {
		if r.Spans[v].Start < r.Spans[u].Finish {
			return fmt.Errorf("sched: precedence (%d,%d) violated: start %d < finish %d",
				u, v, r.Spans[v].Start, r.Spans[u].Finish)
		}
	}
	// Exclusivity per resource.
	byRes := map[int][]Span{}
	for _, s := range r.Spans {
		if s.Resource >= 0 && s.Finish > s.Start {
			byRes[s.Resource] = append(byRes[s.Resource], s)
		}
	}
	for res, spans := range byRes {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].Finish {
				return fmt.Errorf("sched: resource %d runs nodes %d and %d concurrently",
					res, spans[i-1].Node, spans[i].Node)
			}
		}
	}
	return nil
}

// CheckWorkConserving verifies the non-delay property the analysis assumes:
// at no instant is a compatible resource idle while a ready node waits.
// Event times are span starts/finishes.
func (r *Result) CheckWorkConserving(g *dag.Graph) error {
	p := r.Platform
	nClasses := p.NumClasses()
	events := map[int64]struct{}{}
	for _, s := range r.Spans {
		events[s.Start] = struct{}{}
		events[s.Finish] = struct{}{}
	}
	times := make([]int64, 0, len(events))
	for t := range events {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	busy := make([]int, nClasses)
	wait := make([]int, nClasses)
	for _, t := range times {
		if t >= r.Makespan {
			continue
		}
		for c := range busy {
			busy[c], wait[c] = 0, 0
		}
		for _, s := range r.Spans {
			if s.Start <= t && t < s.Finish && s.Resource >= 0 {
				busy[p.ClassOf(s.Resource)]++
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			if g.WCET(v) == 0 || r.Spans[v].Start <= t {
				continue // running, finished, or instant
			}
			ready := true
			for _, u := range g.Preds(v) {
				if r.Spans[u].Finish > t {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			wait[effectiveClass(g, p, v)]++
		}
		for c := 0; c < nClasses; c++ {
			if wait[c] > 0 && busy[c] < p.Count(c) {
				return fmt.Errorf("sched: at t=%d %d class-%d (%s) nodes wait while %d/%d machines busy",
					t, wait[c], c, p.ClassName(c), busy[c], p.Count(c))
			}
		}
	}
	return nil
}

// resourceLabel names a resource for chart rows: "core<i>" for host cores,
// "dev<i>" on the paper's two-class platform, "<class><i>" in general.
func resourceLabel(p platform.Platform, res int) string {
	c := p.ClassOf(res)
	if c <= 0 {
		return fmt.Sprintf("core%d", res)
	}
	name := p.ClassName(c)
	return fmt.Sprintf("%s%d", name, res-p.Base(c))
}

// Gantt renders an ASCII Gantt chart of the schedule, one row per resource,
// suitable for small graphs (examples, debugging). Each column is one time
// unit when the makespan is at most width; otherwise time is scaled down.
func (r *Result) Gantt(g *dag.Graph, width int) string {
	if width <= 0 {
		width = 72
	}
	if r.Makespan == 0 {
		return "(empty schedule)\n"
	}
	scale := 1.0
	if r.Makespan > int64(width) {
		scale = float64(width) / float64(r.Makespan)
	}
	col := func(t int64) int { return int(float64(t) * scale) }

	var b strings.Builder
	p := r.Platform
	total := p.Total()
	for res := 0; res < total; res++ {
		label := fmt.Sprintf("%-6s", resourceLabel(p, res))
		row := make([]byte, col(r.Makespan)+1)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range r.Spans {
			if s.Resource != res || s.Finish == s.Start {
				continue
			}
			name := g.Name(s.Node)
			from, to := col(s.Start), col(s.Finish)
			if to <= from {
				to = from + 1
			}
			if to > len(row) {
				to = len(row)
			}
			for i := from; i < to; i++ {
				row[i] = '#'
			}
			for i, c := range []byte(name) {
				if from+i < to-0 && from+i < len(row) {
					row[from+i] = c
				}
			}
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, row)
	}
	fmt.Fprintf(&b, "t = 0..%d  (policy %s, %v)\n", r.Makespan, r.Policy, p)
	return b.String()
}
