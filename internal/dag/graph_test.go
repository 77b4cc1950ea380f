package dag

import (
	"slices"
	"testing"
)

// fig1 builds the running example of the paper's Figure 1(a): six nodes
// v1..v5 plus vOff, WCETs chosen so that vol(G)=18, len(G)=8 with critical
// path {v1,v3,v5}, and the naive/worst-case discussion of §3.2 reproduces
// (naive bound 11, worst-case breadth-first response 12, Rhom = 13 on m=2).
// The published drawing has two sinks (v5 and vOff); NormalizeSourceSink
// adds the dummy sink exactly as §2 prescribes.
func fig1(t testing.TB) (g *Graph, vOff int) {
	t.Helper()
	g = New()
	v1 := g.AddNode("v1", 2, Host)
	v2 := g.AddNode("v2", 4, Host)
	v3 := g.AddNode("v3", 5, Host)
	v4 := g.AddNode("v4", 2, Host)
	v5 := g.AddNode("v5", 1, Host)
	vOff = g.AddNode("vOff", 4, Offload)
	g.MustAddEdge(v1, v2)
	g.MustAddEdge(v1, v3)
	g.MustAddEdge(v1, v4)
	g.MustAddEdge(v2, v5)
	g.MustAddEdge(v3, v5)
	g.MustAddEdge(v4, vOff)
	return g, vOff
}

// fig1Normalized is fig1 with the dummy sink added.
func fig1Normalized(t testing.TB) (g *Graph, vOff int) {
	t.Helper()
	g, vOff = fig1(t)
	g.NormalizeSourceSink()
	return g, vOff
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New()
	a := g.AddNode("a", 3, Host)
	b := g.AddNode("b", 5, Offload)
	if a != 0 || b != 1 {
		t.Fatalf("IDs = %d,%d, want 0,1", a, b)
	}
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if !g.HasEdge(a, b) {
		t.Fatal("HasEdge(a,b) = false after AddEdge")
	}
	if g.HasEdge(b, a) {
		t.Fatal("HasEdge(b,a) = true, edges must be directed")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestAddEdgeDuplicateIgnored(t *testing.T) {
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 1, Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, b)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after duplicate insert, want 1", g.NumEdges())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	a := g.AddNode("", 1, Host)
	if err := g.AddEdge(a, a); err == nil {
		t.Error("AddEdge(a,a): want self-loop error")
	}
	if err := g.AddEdge(a, 7); err == nil {
		t.Error("AddEdge out of range: want error")
	}
	if err := g.AddEdge(-1, a); err == nil {
		t.Error("AddEdge negative: want error")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 1, Host)
	c := g.AddNode("", 1, Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(a, c)
	if !g.RemoveEdge(a, b) {
		t.Fatal("RemoveEdge(a,b) = false, want true")
	}
	if g.HasEdge(a, b) {
		t.Fatal("edge (a,b) still present after removal")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.RemoveEdge(a, b) {
		t.Fatal("second RemoveEdge(a,b) = true, want false")
	}
	if g.RemoveEdge(99, 0) {
		t.Fatal("RemoveEdge out of range = true, want false")
	}
}

func TestSourcesSinks(t *testing.T) {
	g, vOff := fig1(t)
	if got := g.Sources(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Sources = %v, want [0]", got)
	}
	sinks := g.Sinks()
	if len(sinks) != 2 {
		t.Fatalf("Sinks = %v, want 2 sinks (v5, vOff)", sinks)
	}
	if sinks[0] != 4 || sinks[1] != vOff {
		t.Fatalf("Sinks = %v, want [4 %d]", sinks, vOff)
	}
}

func TestOffloadNode(t *testing.T) {
	g, vOff := fig1(t)
	got, ok := g.OffloadNode()
	if !ok || got != vOff {
		t.Fatalf("OffloadNode = %d,%v want %d,true", got, ok, vOff)
	}
	h := New()
	h.AddNode("", 1, Host)
	if _, ok := h.OffloadNode(); ok {
		t.Fatal("OffloadNode on homogeneous graph: ok = true, want false")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, _ := fig1(t)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not Equal to original")
	}
	c.MustAddEdge(2, 3) // v3 -> v4
	if g.HasEdge(2, 3) {
		t.Fatal("mutating clone changed original")
	}
	c.SetWCET(0, 99)
	if g.WCET(0) == 99 {
		t.Fatal("mutating clone WCET changed original")
	}
}

// TestCloneIsolation: a clone packs its adjacency into one array, so
// every mutation of either side (an edge into a non-empty row, an edge
// removal, a WCET, a transitive reduction) must leave the other side, and
// every other row of the mutated side, as they were.
func TestCloneIsolation(t *testing.T) {
	// v0→{v1,v2,v3}, v1→v3, v2→v3 and the redundant v0→v3: every row of
	// both directions is non-empty except v0's preds and v3's succs.
	build := func() *Graph {
		g := New()
		for i := range 5 {
			g.AddNode("", int64(i+1), Host)
		}
		for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}, {1, 4}} {
			g.MustAddEdge(e[0], e[1])
		}
		return g
	}
	mutations := []struct {
		name string
		mut  func(*Graph)
		// rows lists the nodes whose succ or pred rows the mutation may
		// change; every other row must stay as it was.
		rows []int
	}{
		{"AddEdge", func(g *Graph) { g.MustAddEdge(1, 2) }, []int{1, 2}},
		{"RemoveEdge", func(g *Graph) { g.RemoveEdge(0, 2) }, []int{0, 2}},
		{"SetWCET", func(g *Graph) { g.SetWCET(2, 99) }, nil},
		{"TransitiveReduction", func(g *Graph) {
			if _, err := g.TransitiveReduction(); err != nil {
				t.Fatal(err)
			}
		}, []int{0, 3}},
	}
	for _, m := range mutations {
		for _, side := range []string{"clone", "original"} {
			t.Run(m.name+"/"+side, func(t *testing.T) {
				orig := build()
				clone := orig.Clone()
				mutated, other := clone, orig
				if side == "original" {
					mutated, other = orig, clone
				}
				m.mut(mutated)
				if !other.Equal(build()) {
					t.Fatalf("mutating the %s changed the other side", side)
				}
				// The mutated side's untouched rows keep their contents.
				ref := build()
				for u := range ref.NumNodes() {
					if slices.Contains(m.rows, u) {
						continue
					}
					if !slices.Equal(mutated.Succs(u), ref.Succs(u)) || !slices.Equal(mutated.Preds(u), ref.Preds(u)) {
						t.Fatalf("row %d changed: succs %v preds %v, want %v %v", u, mutated.Succs(u), mutated.Preds(u), ref.Succs(u), ref.Preds(u))
					}
				}
				if m.name == "SetWCET" && (mutated.WCET(2) != 99 || other.WCET(2) != 3) {
					t.Fatalf("WCET of v2: mutated %d, other %d", mutated.WCET(2), other.WCET(2))
				}
				if !mutated.IsAcyclic() || mutated.NumEdges() != len(mutated.Edges()) {
					t.Fatalf("mutated graph inconsistent: %v", mutated.Edges())
				}
			})
		}
	}
	// Regrowing a row whose tail was freed by a removal stays in place.
	g := build()
	c := g.Clone()
	c.RemoveEdge(0, 1)
	c.MustAddEdge(0, 4)
	if got := c.Succs(0); !slices.Equal(got, []int{2, 3, 4}) {
		t.Fatalf("clone v0 succs %v, want [2 3 4]", got)
	}
	if got := c.Succs(1); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("clone v1 succs %v, want [3 4]", got)
	}
	if !g.Equal(build()) {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestEqual(t *testing.T) {
	a, _ := fig1(t)
	b, _ := fig1(t)
	if !a.Equal(b) {
		t.Fatal("identically built graphs not Equal")
	}
	b.SetWCET(1, 7)
	if a.Equal(b) {
		t.Fatal("Equal ignores WCET difference")
	}
	c, _ := fig1(t)
	c.RemoveEdge(0, 1)
	if a.Equal(c) {
		t.Fatal("Equal ignores edge difference")
	}
}

func TestName(t *testing.T) {
	g := New()
	g.AddNode("alpha", 1, Host)
	g.AddNode("", 1, Host)
	if got := g.Name(0); got != "alpha" {
		t.Errorf("Name(0) = %q, want alpha", got)
	}
	if got := g.Name(1); got != "v2" {
		t.Errorf("Name(1) = %q, want synthesized v2", got)
	}
}

func TestNodeKindString(t *testing.T) {
	cases := map[NodeKind]string{Host: "host", Offload: "offload", Sync: "sync", NodeKind(9): "NodeKind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("NodeKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestGraphString(t *testing.T) {
	g, _ := fig1(t)
	if got, want := g.String(), "dag{n=6 e=6 vol=18 len=8}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	cyc := New()
	a := cyc.AddNode("", 1, Host)
	b := cyc.AddNode("", 1, Host)
	cyc.MustAddEdge(a, b)
	cyc.MustAddEdge(b, a)
	if got := cyc.String(); got != "dag{n=2 e=2 CYCLIC}" {
		t.Errorf("cyclic String = %q", got)
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g, _ := fig1(t)
	edges := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 5}}
	if len(edges) != len(want) {
		t.Fatalf("Edges len = %d, want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, edges[i], want[i])
		}
	}
}

func TestDegrees(t *testing.T) {
	g, _ := fig1(t)
	if d := g.OutDegree(0); d != 3 {
		t.Errorf("OutDegree(v1) = %d, want 3", d)
	}
	if d := g.InDegree(4); d != 2 {
		t.Errorf("InDegree(v5) = %d, want 2", d)
	}
	if d := g.InDegree(0); d != 0 {
		t.Errorf("InDegree(v1) = %d, want 0", d)
	}
}
