package dag

import (
	"errors"
	"math/rand"
	"testing"
)

func TestValidatePaperModel(t *testing.T) {
	g, _ := fig1Normalized(t)
	if err := g.Validate(PaperModel()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 1, Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	err := g.Validate(ValidateOptions{})
	if err == nil || !errors.Is(err, ErrCyclic) {
		t.Fatalf("Validate on cycle = %v, want ErrCyclic", err)
	}
}

func TestValidateRejectsMultiSourceSink(t *testing.T) {
	g, _ := fig1(t) // two sinks before normalization
	err := g.Validate(ValidateOptions{RequireSingleSourceSink: true})
	if err == nil {
		t.Fatal("Validate accepted graph with two sinks")
	}
}

func TestValidateRejectsTwoOffloads(t *testing.T) {
	g := New()
	g.AddNode("", 1, Offload)
	g.AddNode("", 1, Offload)
	err := g.Validate(ValidateOptions{RequireSingleOffload: true})
	if err == nil {
		t.Fatal("Validate accepted two offload nodes")
	}
}

func TestValidateRejectsNonZeroSync(t *testing.T) {
	g := New()
	g.AddNode("", 5, Sync)
	if err := g.Validate(ValidateOptions{}); err == nil {
		t.Fatal("Validate accepted sync node with non-zero WCET")
	}
}

func TestValidateRejectsNegativeWCET(t *testing.T) {
	g := New()
	g.AddNode("", -1, Host)
	if err := g.Validate(ValidateOptions{}); err == nil {
		t.Fatal("Validate accepted negative WCET")
	}
}

func TestValidateZeroWCETPolicy(t *testing.T) {
	g := New()
	g.AddNode("", 0, Host)
	if err := g.Validate(ValidateOptions{}); err == nil {
		t.Fatal("Validate accepted zero WCET host node without AllowZeroWCET")
	}
	if err := g.Validate(ValidateOptions{AllowZeroWCET: true}); err != nil {
		t.Fatalf("Validate rejected zero WCET with AllowZeroWCET: %v", err)
	}
}

func TestRedundantEdgeDetection(t *testing.T) {
	// a -> b -> c plus the transitive edge a -> c.
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 1, Host)
	c := g.AddNode("", 1, Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.MustAddEdge(a, c)
	u, v, ok := g.RedundantEdge()
	if !ok || u != a || v != c {
		t.Fatalf("RedundantEdge = (%d,%d,%v), want (%d,%d,true)", u, v, ok, a, c)
	}
	if err := g.Validate(ValidateOptions{RequireReduced: true}); err == nil {
		t.Fatal("Validate accepted transitive edge with RequireReduced")
	}
}

func TestRedundantEdgeLongPath(t *testing.T) {
	// a -> b -> c -> d plus a -> d: redundant via a 3-edge path; this is NOT
	// a transitive edge in the paper's narrow length-2 sense, but Algorithm 1
	// requires catching it (Design §4.2).
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 1, Host)
	c := g.AddNode("", 1, Host)
	d := g.AddNode("", 1, Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.MustAddEdge(c, d)
	g.MustAddEdge(a, d)
	if _, _, ok := g.RedundantEdge(); !ok {
		t.Fatal("RedundantEdge missed a long redundant path")
	}
}

func TestTransitiveReduction(t *testing.T) {
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 1, Host)
	c := g.AddNode("", 1, Host)
	d := g.AddNode("", 1, Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.MustAddEdge(c, d)
	g.MustAddEdge(a, c) // redundant
	g.MustAddEdge(a, d) // redundant
	g.MustAddEdge(b, d) // redundant
	removed, err := g.TransitiveReduction()
	if err != nil {
		t.Fatalf("TransitiveReduction: %v", err)
	}
	if removed != 3 {
		t.Errorf("removed = %d, want 3", removed)
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3 (chain)", g.NumEdges())
	}
	if _, _, ok := g.RedundantEdge(); ok {
		t.Error("RedundantEdge still present after reduction")
	}
}

func TestTransitiveReductionCyclic(t *testing.T) {
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 1, Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := g.TransitiveReduction(); err == nil {
		t.Fatal("TransitiveReduction accepted cyclic graph")
	}
}

// TestTransitiveReductionAllocsFlat: reducing an already-reduced graph
// allocates only its fixed scratch buffers, however many nodes have
// successors — no successor row is copied.
func TestTransitiveReductionAllocsFlat(t *testing.T) {
	// forkJoins chains k fork-join diamonds: no edge is redundant, and
	// 3k of its 3k+1 nodes have successors.
	forkJoins := func(k int) *Graph {
		g := New()
		prev := g.AddNode("", 1, Host)
		for range k {
			a, b := g.AddNode("", 1, Host), g.AddNode("", 1, Host)
			join := g.AddNode("", 1, Host)
			g.MustAddEdge(prev, a)
			g.MustAddEdge(prev, b)
			g.MustAddEdge(a, join)
			g.MustAddEdge(b, join)
			prev = join
		}
		return g
	}
	allocs := func(g *Graph) float64 {
		return testing.AllocsPerRun(20, func() {
			if removed, err := g.TransitiveReduction(); err != nil || removed != 0 {
				t.Fatalf("reduced graph: removed %d, err %v", removed, err)
			}
		})
	}
	small, large := allocs(forkJoins(2)), allocs(forkJoins(60))
	if large != small {
		t.Fatalf("allocs/op %v with 180 non-empty rows, %v with 6; want equal", large, small)
	}
}

// randomDAG builds a random layered DAG for property-style tests.
func randomDAG(r *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode("", int64(1+r.Intn(100)), Host)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

func TestTransitiveReductionPreservesReachability(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 3 + r.Intn(15)
		g := randomDAG(r, n, 0.35)
		before := make([][]bool, n)
		for u := 0; u < n; u++ {
			before[u] = make([]bool, n)
			for v := 0; v < n; v++ {
				before[u][v] = g.Reaches(u, v)
			}
		}
		if _, err := g.TransitiveReduction(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got := g.Reaches(u, v); got != before[u][v] {
					t.Fatalf("trial %d: Reaches(%d,%d) changed %v -> %v", trial, u, v, before[u][v], got)
				}
			}
		}
		// Idempotence: a second reduction removes nothing.
		removed, _ := g.TransitiveReduction()
		if removed != 0 {
			t.Fatalf("trial %d: second reduction removed %d edges", trial, removed)
		}
	}
}

func TestNormalizeSourceSink(t *testing.T) {
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 2, Host)
	c := g.AddNode("", 3, Host)
	d := g.AddNode("", 4, Host)
	g.MustAddEdge(a, c)
	g.MustAddEdge(b, d)
	// Two sources {a,b}, two sinks {c,d}.
	src, sink := g.NormalizeSourceSink()
	if got := g.Sources(); len(got) != 1 || got[0] != src {
		t.Fatalf("Sources = %v, want [%d]", got, src)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != sink {
		t.Fatalf("Sinks = %v, want [%d]", got, sink)
	}
	if g.WCET(src) != 0 || g.WCET(sink) != 0 {
		t.Error("dummy nodes must have zero WCET")
	}
	if g.Volume() != 10 {
		t.Errorf("Volume changed by normalization: %d, want 10", g.Volume())
	}
}

func TestNormalizeAlreadyNormal(t *testing.T) {
	g := New()
	a := g.AddNode("", 1, Host)
	b := g.AddNode("", 2, Host)
	g.MustAddEdge(a, b)
	src, sink := g.NormalizeSourceSink()
	if src != a || sink != b {
		t.Fatalf("Normalize = (%d,%d), want existing (%d,%d)", src, sink, a, b)
	}
	if g.NumNodes() != 2 {
		t.Fatalf("Normalize added nodes to an already-normal graph")
	}
}

func TestNormalizeIsolatedNode(t *testing.T) {
	g := New()
	g.AddNode("", 1, Host)
	g.AddNode("", 2, Host) // both isolated: 2 sources, 2 sinks
	src, sink := g.NormalizeSourceSink()
	if err := g.Validate(ValidateOptions{RequireSingleSourceSink: true, AllowZeroWCET: true}); err != nil {
		t.Fatalf("Validate after normalize: %v", err)
	}
	if !g.Reaches(src, sink) {
		t.Error("source does not reach sink after normalization")
	}
}
