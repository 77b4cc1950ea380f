package dag

import (
	"fmt"
	"math/rand"
	"testing"
)

// permuted returns a copy of g with node IDs relabeled by perm (perm[old] =
// new), preserving node contents and the edge relation.
func permuted(g *Graph, perm []int) *Graph {
	h := New()
	inv := make([]int, len(perm)) // new -> old
	for old, nw := range perm {
		inv[nw] = old
	}
	for _, old := range inv {
		n := g.Node(old)
		id := h.AddNode(n.Name, n.WCET, n.Kind)
		if n.Kind == Offload {
			h.SetClass(id, n.Class)
		}
	}
	for u, v := range g.EachEdge() {
		h.MustAddEdge(perm[u], perm[v])
	}
	return h
}

func randomFPDAG(r *rand.Rand, n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		kind := Host
		if r.Intn(4) == 0 {
			kind = Offload
		}
		id := g.AddNode("", 1+int64(r.Intn(9)), kind)
		if kind == Offload && r.Intn(2) == 0 {
			g.SetClass(id, 1+r.Intn(3))
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(3) == 0 {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

func TestFingerprintRelabelingInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(14)
		g := randomFPDAG(r, n)
		fp := g.Fingerprint()
		perm := r.Perm(n)
		p := permuted(g, perm)
		if got := p.Fingerprint(); got != fp {
			t.Fatalf("trial %d: fingerprint not relabeling-invariant:\n g=%v fp=%s\n p(perm=%v) fp=%s",
				trial, g, fp, perm, got)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Graph {
		g := New()
		a := g.AddNode("a", 2, Host)
		b := g.AddNode("b", 8, Offload)
		c := g.AddNode("c", 3, Host)
		g.MustAddEdge(a, b)
		g.MustAddEdge(b, c)
		return g
	}
	fp := base().Fingerprint()

	mutations := map[string]func(g *Graph){
		"wcet":        func(g *Graph) { g.SetWCET(0, 3) },
		"kind":        func(g *Graph) { g.SetKind(1, Host) },
		"class":       func(g *Graph) { g.SetClass(1, 2) },
		"name":        func(g *Graph) { g.SetName(2, "z") },
		"add edge":    func(g *Graph) { g.MustAddEdge(0, 2) },
		"remove edge": func(g *Graph) { g.RemoveEdge(1, 2) },
		"add node":    func(g *Graph) { g.AddNode("", 1, Host) },
	}
	for what, mutate := range mutations {
		g := base()
		mutate(g)
		if g.Fingerprint() == fp {
			t.Errorf("%s: fingerprint unchanged by mutation", what)
		}
	}
}

func TestFingerprintMemoInvalidation(t *testing.T) {
	g := New()
	a := g.AddNode("a", 2, Host)
	b := g.AddNode("b", 4, Host)
	g.MustAddEdge(a, b)
	fp1 := g.Fingerprint()
	if got := g.Fingerprint(); got != fp1 {
		t.Fatal("repeated Fingerprint differs on unmodified graph")
	}
	g.SetWCET(a, 3)
	fp2 := g.Fingerprint()
	if fp2 == fp1 {
		t.Fatal("fingerprint not invalidated by mutation")
	}
	g.SetWCET(a, 2)
	if got := g.Fingerprint(); got != fp1 {
		t.Fatal("fingerprint of restored graph differs from original")
	}
}

func TestFingerprintDistinguishesSymmetricChains(t *testing.T) {
	// Two graphs over the same node multiset: parallel chains a->b, c->d
	// versus crossed chains a->d, c->b, with contents chosen so the crossing
	// matters (WCETs differ along each chain).
	mk := func(cross bool) *Graph {
		g := New()
		a := g.AddNode("", 1, Host)
		b := g.AddNode("", 2, Host)
		c := g.AddNode("", 3, Host)
		d := g.AddNode("", 4, Host)
		if cross {
			g.MustAddEdge(a, d)
			g.MustAddEdge(c, b)
		} else {
			g.MustAddEdge(a, b)
			g.MustAddEdge(c, d)
		}
		return g
	}
	if mk(false).Fingerprint() == mk(true).Fingerprint() {
		t.Fatal("fingerprint collision between structurally different graphs")
	}
}

func TestFingerprintCyclicDeterministic(t *testing.T) {
	mk := func() *Graph {
		g := New()
		a := g.AddNode("a", 1, Host)
		b := g.AddNode("b", 2, Host)
		c := g.AddNode("c", 3, Host)
		g.MustAddEdge(a, b)
		g.MustAddEdge(b, c)
		g.MustAddEdge(c, a)
		return g
	}
	// Must not panic, and must be stable across recomputation.
	if mk().Fingerprint() != mk().Fingerprint() {
		t.Fatal("cyclic fingerprint not deterministic")
	}
	// And distinct from its acyclic subgraph.
	g := mk()
	g.RemoveEdge(2, 0)
	if g.Fingerprint() == mk().Fingerprint() {
		t.Fatal("cyclic and acyclic variants share a fingerprint")
	}
}

func TestFingerprintEmptyGraph(t *testing.T) {
	var zero Fingerprint
	if New().Fingerprint() == zero {
		t.Fatal("empty graph fingerprint is the zero value")
	}
	if New().Fingerprint() != New().Fingerprint() {
		t.Fatal("empty graph fingerprint not deterministic")
	}
}

func TestFingerprintConcurrentReads(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomFPDAG(r, 12)
	want := g.Fingerprint()
	done := make(chan Fingerprint, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- g.Fingerprint() }()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; got != want {
			t.Fatal("concurrent Fingerprint mismatch")
		}
	}
}

// TestFingerprintPooledScratchConcurrent fingerprints graphs of mixed sizes
// from several goroutines at once, every call recomputing on scratch that
// the pool may have handed to a larger or smaller graph before: each result
// must match the graph's fingerprint computed alone.
func TestFingerprintPooledScratchConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	graphs := make([]*Graph, 24)
	want := make([]Fingerprint, len(graphs))
	for i := range graphs {
		graphs[i] = randomFPDAG(r, 1+r.Intn(40))
		want[i] = graphs[i].Fingerprint()
	}
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for round := 0; round < 20; round++ {
				i := (w*7 + round*5) % len(graphs)
				g := graphs[i].Clone() // a private copy: no memo, no shared lock
				if got := g.Fingerprint(); got != want[i] {
					errs <- fmt.Errorf("graph %d: fingerprint %s, want %s", i, got, want[i])
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
