package dag

import (
	"errors"
	"fmt"
)

// Validation of the paper's structural assumptions (Section 2):
//
//   - G is acyclic;
//   - exactly one source and one sink (dummy nodes may be added to enforce
//     this, see NormalizeSourceSink);
//   - transitive edges do not exist: if (v1,v2) ∈ E and (v2,v3) ∈ E then
//     (v1,v3) ∉ E. Algorithm 1 additionally relies (via the footnote in
//     §3.4.3) on the stronger property that no edge is redundant: an edge
//     (u,v) must be the only u→v connection. TransitiveReduction enforces
//     the stronger property; Validate checks it.

// ErrCyclic is reported (wrapped) when the graph has a directed cycle.
var ErrCyclic = errors.New("graph is cyclic")

// ValidateOptions tunes Validate.
type ValidateOptions struct {
	// RequireSingleSourceSink demands exactly one source and one sink.
	RequireSingleSourceSink bool
	// RequireReduced demands that no edge is redundant (strict transitive
	// reduction), which is what Algorithm 1 needs.
	RequireReduced bool
	// RequireSingleOffload demands at most one Offload node (the paper's
	// model; the multi-offload extension lifts this).
	RequireSingleOffload bool
	// AllowZeroWCET permits WCET == 0 on non-Sync nodes. The paper allows
	// zero-WCET dummy source/sink nodes, so normalized graphs need it.
	AllowZeroWCET bool
}

// PaperModel returns the validation options matching the paper's system
// model for already-normalized graphs.
func PaperModel() ValidateOptions {
	return ValidateOptions{
		RequireSingleSourceSink: true,
		RequireReduced:          true,
		RequireSingleOffload:    true,
		AllowZeroWCET:           true,
	}
}

// Validate checks structural well-formedness under the given options.
func (g *Graph) Validate(opts ValidateOptions) error {
	if _, ok := g.TopoOrder(); !ok {
		return fmt.Errorf("dag: %w", ErrCyclic)
	}
	for id := range g.nodes {
		n := &g.nodes[id]
		if n.WCET < 0 {
			return fmt.Errorf("dag: node %d has negative WCET %d", id, n.WCET)
		}
		if n.WCET == 0 && n.Kind != Sync && !opts.AllowZeroWCET {
			return fmt.Errorf("dag: node %d (%s) has zero WCET", id, n.Kind)
		}
		if n.Kind == Sync && n.WCET != 0 {
			return fmt.Errorf("dag: sync node %d has non-zero WCET %d", id, n.WCET)
		}
	}
	if opts.RequireSingleOffload {
		if off := g.OffloadNodes(); len(off) > 1 {
			return fmt.Errorf("dag: %d offload nodes, the model allows one", len(off))
		}
	}
	if opts.RequireSingleSourceSink && g.NumNodes() > 0 {
		if s := g.Sources(); len(s) != 1 {
			return fmt.Errorf("dag: %d sources, want exactly 1", len(s))
		}
		if s := g.Sinks(); len(s) != 1 {
			return fmt.Errorf("dag: %d sinks, want exactly 1", len(s))
		}
	}
	if opts.RequireReduced {
		if u, v, ok := g.RedundantEdge(); ok {
			return fmt.Errorf("dag: redundant edge (%d,%d): another %d→%d path exists", u, v, u, v)
		}
	}
	return nil
}

// RedundantEdge finds an edge (u,v) such that v is still reachable from u
// after removing the edge, i.e. the edge carries no precedence information.
// Transitive edges in the paper's narrow sense are a special case.
func (g *Graph) RedundantEdge() (u, v int, ok bool) {
	order, topoOK := g.TopoOrder()
	if !topoOK {
		return 0, 0, false
	}
	sc := newPathScratch(g.NumNodes(), order)
	for _, uu := range order {
		for _, vv := range g.succs[uu] {
			if g.hasLongerPath(uu, vv, sc) {
				return uu, vv, true
			}
		}
	}
	return 0, 0, false
}

// pathScratch holds the per-query buffers of hasLongerPath so a caller
// probing many edges (RedundantEdge, TransitiveReduction) allocates them
// once instead of per edge.
type pathScratch struct {
	// pos is the topological position table used to prune the search.
	pos []int
	// seen marks visited nodes; cleared (O(n/64)) between queries.
	seen  NodeSet
	stack []int
}

func newPathScratch(n int, order []int) *pathScratch {
	sc := &pathScratch{
		pos:   make([]int, n),
		seen:  NewNodeSetWithMax(n),
		stack: make([]int, 0, n),
	}
	for i, id := range order {
		sc.pos[id] = i
	}
	return sc
}

// hasLongerPath reports whether a u→v path of length ≥ 2 edges exists.
func (g *Graph) hasLongerPath(u, v int, sc *pathScratch) bool {
	for i := range sc.seen.words {
		sc.seen.words[i] = 0
	}
	stack := sc.stack[:0]
	pos := sc.pos
	for _, w := range g.succs[u] {
		if w != v && pos[w] < pos[v] {
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if sc.seen.Contains(w) {
			continue
		}
		sc.seen.Add(w)
		for _, x := range g.succs[w] {
			if x == v {
				sc.stack = stack
				return true
			}
			if pos[x] < pos[v] {
				stack = append(stack, x)
			}
		}
	}
	sc.stack = stack
	return false
}

// TransitiveReduction removes every redundant edge in place, producing the
// unique minimal graph with the same reachability relation (unique for
// DAGs). Returns the number of edges removed, or an error on cyclic input.
func (g *Graph) TransitiveReduction() (removed int, err error) {
	order, ok := g.TopoOrder()
	if !ok {
		return 0, fmt.Errorf("dag: %w", ErrCyclic)
	}
	sc := newPathScratch(g.NumNodes(), order)
	for _, u := range order {
		// Walk the row from its end: RemoveEdge deletes in place from the
		// sorted row, shifting only the entries after the removed one, so
		// the entries still to visit keep their indices. (Removing edges
		// never changes topological positions, so sc.pos stays valid;
		// order is a cache snapshot, safe across the mutations.)
		for i := len(g.succs[u]) - 1; i >= 0; i-- {
			if v := g.succs[u][i]; g.hasLongerPath(u, v, sc) {
				g.RemoveEdge(u, v)
				removed++
			}
		}
	}
	return removed, nil
}

// NormalizeSourceSink ensures the graph has exactly one source and one sink
// by adding zero-WCET dummy Host nodes when needed, exactly as Section 2
// prescribes ("a dummy source/sink node with zero WCET can be added to the
// DAG, with edges to/from all the source/sink nodes"). It returns the IDs of
// the (possibly pre-existing) unique source and sink.
func (g *Graph) NormalizeSourceSink() (source, sink int) {
	sources := g.Sources()
	sinks := g.Sinks()
	if len(sources) == 1 {
		source = sources[0]
	} else {
		source = g.AddNode("src", 0, Host)
		for _, s := range sources {
			g.MustAddEdge(source, s)
		}
	}
	if len(sinks) == 1 {
		sink = sinks[0]
	} else {
		sink = g.AddNode("sink", 0, Host)
		for _, s := range sinks {
			if s != source {
				g.MustAddEdge(s, sink)
			}
		}
	}
	return source, sink
}
