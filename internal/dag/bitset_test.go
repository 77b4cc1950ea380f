package dag

// Property tests pinning the bitset NodeSet to the semantics of the
// map-based implementation it replaced, and the lazily cached graph
// properties to fresh recomputation across arbitrary mutation sequences.

import (
	"math/rand"
	"testing"
)

// mapSet is the reference implementation: the old map-based NodeSet.
type mapSet map[int]struct{}

func (s mapSet) add(id int)           { s[id] = struct{}{} }
func (s mapSet) remove(id int)        { delete(s, id) }
func (s mapSet) contains(id int) bool { _, ok := s[id]; return ok }

func sameMembers(t *testing.T, label string, got NodeSet, want mapSet, universe int) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", label, got.Len(), len(want))
	}
	for id := 0; id < universe; id++ {
		if got.Contains(id) != want.contains(id) {
			t.Fatalf("%s: Contains(%d) = %v, want %v", label, id, got.Contains(id), want.contains(id))
		}
	}
	sorted := got.Sorted()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatalf("%s: Sorted not strictly ascending: %v", label, sorted)
		}
	}
	for _, id := range sorted {
		if !want.contains(id) {
			t.Fatalf("%s: Sorted contains stray %d", label, id)
		}
	}
}

// TestNodeSetMatchesMapSemantics drives a bitset and the map reference
// through identical random add/remove/union sequences.
func TestNodeSetMatchesMapSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		universe := 1 + r.Intn(200) // crosses the 64- and 128-bit word limits
		var bs NodeSet
		ms := mapSet{}
		for op := 0; op < 150; op++ {
			id := r.Intn(universe)
			switch r.Intn(4) {
			case 0, 1:
				bs.Add(id)
				ms.add(id)
			case 2:
				bs.Remove(id)
				ms.remove(id)
			case 3: // union with a small random set
				other := NewNodeSet()
				for k := 0; k < r.Intn(5); k++ {
					v := r.Intn(universe)
					other.Add(v)
					ms.add(v)
				}
				bs = bs.Union(other)
			}
		}
		sameMembers(t, "after ops", bs, ms, universe)

		// Union (non-mutating) agrees with the element-wise union.
		extra := NewNodeSet()
		msU := mapSet{}
		for id := range ms {
			msU.add(id)
		}
		for k := 0; k < 10; k++ {
			v := r.Intn(universe)
			extra.Add(v)
			msU.add(v)
		}
		sameMembers(t, "Union", bs.Union(extra), msU, universe)

		// Equal is reflexive, agrees across differing word lengths, and
		// detects any single-element difference.
		if !bs.Equal(bs.Clone()) {
			t.Fatal("set not Equal to its Clone")
		}
		grown := bs.Clone()
		grown.Add(universe + 300) // force a longer word slice
		grown.Remove(universe + 300)
		if !bs.Equal(grown) || !grown.Equal(bs) {
			t.Fatal("Equal must ignore trailing zero words")
		}
		flipped := bs.Clone()
		pick := r.Intn(universe)
		if flipped.Contains(pick) {
			flipped.Remove(pick)
		} else {
			flipped.Add(pick)
		}
		if bs.Equal(flipped) {
			t.Fatalf("Equal missed a flipped element %d", pick)
		}
	}
}

// referenceAncestors is a trivially correct reachability oracle.
func referenceAncestors(g *Graph, id int) mapSet {
	out := mapSet{}
	var visit func(v int)
	visit = func(v int) {
		for _, p := range g.Preds(v) {
			if !out.contains(p) {
				out.add(p)
				visit(p)
			}
		}
	}
	visit(id)
	return out
}

// TestReachabilityMatchesReference checks Ancestors/Descendants/
// ParallelNodes against a naive oracle on random DAGs.
func TestReachabilityMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(120)
		g := randomDAG(r, n, 0.15+0.5*r.Float64())
		for v := 0; v < n; v++ {
			anc := referenceAncestors(g, v)
			sameMembers(t, "Ancestors", g.Ancestors(v), anc, n)

			desc := mapSet{}
			for w := 0; w < n; w++ {
				if referenceAncestors(g, w).contains(v) {
					desc.add(w)
				}
			}
			sameMembers(t, "Descendants", g.Descendants(v), desc, n)

			par := mapSet{}
			for w := 0; w < n; w++ {
				if w != v && !anc.contains(w) && !desc.contains(w) {
					par.add(w)
				}
			}
			sameMembers(t, "ParallelNodes", g.ParallelNodes(v), par, n)
		}
	}
}

// referenceProps recomputes every cached property from the raw adjacency
// with an independent implementation (DFS topological sort + longest-path
// DP over it).
func referenceProps(g *Graph) (volume int64, toEnd, fromStart []int64, cpl int64) {
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		volume += g.WCET(v)
	}
	// DFS postorder reversed is a topological order (graph is acyclic here).
	state := make([]int, n)
	var order []int
	var visit func(v int)
	visit = func(v int) {
		state[v] = 1
		for _, w := range g.Succs(v) {
			if state[w] == 0 {
				visit(w)
			}
		}
		order = append(order, v)
	}
	for v := 0; v < n; v++ {
		if state[v] == 0 {
			visit(v)
		}
	}
	toEnd = make([]int64, n)
	fromStart = make([]int64, n)
	for _, u := range order { // postorder: successors first
		var best int64
		for _, w := range g.Succs(u) {
			if toEnd[w] > best {
				best = toEnd[w]
			}
		}
		toEnd[u] = best + g.WCET(u)
		if toEnd[u] > cpl {
			cpl = toEnd[u]
		}
	}
	for i := len(order) - 1; i >= 0; i-- { // reverse postorder: preds first
		u := order[i]
		var best int64
		for _, p := range g.Preds(u) {
			if fromStart[p] > best {
				best = fromStart[p]
			}
		}
		fromStart[u] = best + g.WCET(u)
	}
	return volume, toEnd, fromStart, cpl
}

// TestCachedPropsSurviveMutations interleaves AddEdge/RemoveEdge/SetWCET/
// AddNode mutations with property queries and checks every cached value
// against the independent reference after each step.
func TestCachedPropsSurviveMutations(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(40)
		g := randomDAG(r, n, 0.3)

		check := func(step string) {
			t.Helper()
			volume, toEnd, fromStart, cpl := referenceProps(g)
			if got := g.Volume(); got != volume {
				t.Fatalf("%s: Volume = %d, want %d", step, got, volume)
			}
			if got := g.CriticalPathLength(); got != cpl {
				t.Fatalf("%s: CriticalPathLength = %d, want %d", step, got, cpl)
			}
			gotToEnd := g.LongestToEnd()
			gotFrom := g.LongestFromStart()
			through := g.LongestPathThrough()
			for v := 0; v < g.NumNodes(); v++ {
				if gotToEnd[v] != toEnd[v] {
					t.Fatalf("%s: LongestToEnd[%d] = %d, want %d", step, v, gotToEnd[v], toEnd[v])
				}
				if gotFrom[v] != fromStart[v] {
					t.Fatalf("%s: LongestFromStart[%d] = %d, want %d", step, v, gotFrom[v], fromStart[v])
				}
				if want := fromStart[v] + toEnd[v] - g.WCET(v); through[v] != want {
					t.Fatalf("%s: LongestPathThrough[%d] = %d, want %d", step, v, through[v], want)
				}
				if got, want := g.OnCriticalPath(v), through[v] == cpl; got != want {
					t.Fatalf("%s: OnCriticalPath(%d) = %v, want %v", step, v, got, want)
				}
			}
			order, ok := g.TopoOrder()
			if !ok {
				t.Fatalf("%s: cyclic", step)
			}
			pos := make([]int, g.NumNodes())
			for i, id := range order {
				pos[id] = i
			}
			for u, v := range g.EachEdge() {
				if pos[u] >= pos[v] {
					t.Fatalf("%s: topo order violates edge (%d,%d)", step, u, v)
				}
			}
		}

		check("initial")
		for step := 0; step < 40; step++ {
			u, v := r.Intn(g.NumNodes()), r.Intn(g.NumNodes())
			switch r.Intn(5) {
			case 0: // add a forward edge (keeps the graph acyclic)
				if u != v && !g.Reaches(v, u) {
					g.MustAddEdge(u, v)
				}
			case 1:
				g.RemoveEdge(u, v)
			case 2:
				g.SetWCET(u, int64(r.Intn(20)))
			case 3:
				id := g.AddNode("", int64(1+r.Intn(9)), Host)
				if w := r.Intn(id); r.Intn(2) == 0 {
					g.MustAddEdge(w, id)
				}
			case 4: // pure queries between mutations must not go stale
				_ = g.Volume()
				_, _ = g.TopoOrder()
			}
			check("after mutation")
		}

		// Reset reuses capacity but must behave like a brand-new graph.
		g.Reset()
		if g.NumNodes() != 0 || g.NumEdges() != 0 || g.Volume() != 0 {
			t.Fatalf("Reset left n=%d e=%d vol=%d", g.NumNodes(), g.NumEdges(), g.Volume())
		}
		a := g.AddNode("", 5, Host)
		b := g.AddNode("", 7, Host)
		g.MustAddEdge(a, b)
		if g.Volume() != 12 || g.CriticalPathLength() != 12 || g.NumEdges() != 1 {
			t.Fatalf("post-Reset graph wrong: vol=%d len=%d e=%d", g.Volume(), g.CriticalPathLength(), g.NumEdges())
		}
		check("after reset rebuild")
	}
}

// TestIteratorsMatchCopies pins EachNode/EachEdge to Nodes/Edges.
func TestIteratorsMatchCopies(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomDAG(r, 60, 0.4)
	var nodes []Node
	for n := range g.EachNode() {
		nodes = append(nodes, n)
	}
	want := g.Nodes()
	if len(nodes) != len(want) {
		t.Fatalf("EachNode yielded %d nodes, want %d", len(nodes), len(want))
	}
	for i := range nodes {
		if nodes[i] != want[i] {
			t.Fatalf("EachNode[%d] = %+v, want %+v", i, nodes[i], want[i])
		}
	}
	var edges [][2]int
	for u, v := range g.EachEdge() {
		edges = append(edges, [2]int{u, v})
	}
	wantE := g.Edges()
	if len(edges) != len(wantE) {
		t.Fatalf("EachEdge yielded %d edges, want %d", len(edges), len(wantE))
	}
	for i := range edges {
		if edges[i] != wantE[i] {
			t.Fatalf("EachEdge[%d] = %v, want %v", i, edges[i], wantE[i])
		}
	}
	// Early break must not panic or yield further values.
	count := 0
	for range g.EachNode() {
		count++
		if count == 3 {
			break
		}
	}
	if count != 3 {
		t.Fatalf("early break yielded %d", count)
	}
}

// TestFromAdjacencyMatchesIncremental builds random graphs both ways.
func TestFromAdjacencyMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(50)
		inc := New()
		nodes := make([]Node, n)
		for v := 0; v < n; v++ {
			nodes[v] = Node{Name: "x", WCET: int64(r.Intn(9)), Kind: Host}
			inc.AddNode("x", nodes[v].WCET, Host)
		}
		succs := make([][]int, n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.1 {
					succs[u] = append(succs[u], v)
					inc.MustAddEdge(u, v)
				}
			}
		}
		bulk, err := FromAdjacency(nodes, succs)
		if err != nil {
			t.Fatal(err)
		}
		if !bulk.Equal(inc) {
			t.Fatalf("FromAdjacency graph differs from incremental construction")
		}
	}
	// Error cases.
	if _, err := FromAdjacency(make([]Node, 2), [][]int{{1}}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FromAdjacency(make([]Node, 2), [][]int{{0}, nil}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := FromAdjacency(make([]Node, 2), [][]int{{2}, nil}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := FromAdjacency(make([]Node, 3), [][]int{{2, 1}, nil, nil}); err == nil {
		t.Error("unsorted successors accepted")
	}
	if _, err := FromAdjacency(make([]Node, 3), [][]int{{1, 1}, nil, nil}); err == nil {
		t.Error("duplicate successors accepted")
	}
}
