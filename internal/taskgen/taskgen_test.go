package taskgen

import (
	"math"
	"testing"

	"repro/internal/dag"
)

func TestParamsValidate(t *testing.T) {
	good := Small(3, 20)
	if err := good.Validate(); err != nil {
		t.Fatalf("Small params invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"ppar negative", func(p *Params) { p.PPar = -0.1 }},
		{"ppar > 1", func(p *Params) { p.PPar = 1.1 }},
		{"npar < 2", func(p *Params) { p.NPar = 1 }},
		{"depth < 1", func(p *Params) { p.MaxDepth = 0 }},
		{"nmin < 1", func(p *Params) { p.NMin = 0 }},
		{"nmax < nmin", func(p *Params) { p.NMin = 10; p.NMax = 5 }},
		{"cmin < 1", func(p *Params) { p.CMin = 0 }},
		{"cmax < cmin", func(p *Params) { p.CMin = 10; p.CMax = 5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := good
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", p)
			}
			if _, err := New(p, 1); err == nil {
				t.Errorf("New accepted %+v", p)
			}
		})
	}
}

func TestGraphRespectsParams(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"small", Small(3, 20)},
		{"large", Large(100, 250)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := MustNew(tc.p, 7)
			for i := 0; i < 20; i++ {
				g, err := gen.Graph()
				if err != nil {
					t.Fatalf("Graph: %v", err)
				}
				n := g.NumNodes()
				if n < tc.p.NMin || n > tc.p.NMax {
					t.Fatalf("n = %d outside [%d,%d]", n, tc.p.NMin, tc.p.NMax)
				}
				if err := g.Validate(dag.ValidateOptions{
					RequireSingleSourceSink: true,
					RequireReduced:          true,
				}); err != nil {
					t.Fatalf("generated graph invalid: %v", err)
				}
				for _, node := range g.Nodes() {
					if node.WCET < tc.p.CMin || node.WCET > tc.p.CMax {
						t.Fatalf("WCET %d outside [%d,%d]", node.WCET, tc.p.CMin, tc.p.CMax)
					}
					if node.Kind != dag.Host {
						t.Fatalf("Graph() emitted non-host node %v", node.Kind)
					}
				}
				// Longest path ≤ 2·maxdepth+1 nodes (Section 5.1).
				if got := len(g.CriticalPath()); got > 2*tc.p.MaxDepth+1 {
					t.Fatalf("critical path has %d nodes, max allowed %d", got, 2*tc.p.MaxDepth+1)
				}
			}
		})
	}
}

func TestGraphDeterministicPerSeed(t *testing.T) {
	p := Small(3, 20)
	a, err := MustNew(p, 99).Graph()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MustNew(p, 99).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed produced different graphs")
	}
	c, err := MustNew(p, 100).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different seeds produced identical graphs (suspicious)")
	}
}

func TestGraphUnsatisfiableRange(t *testing.T) {
	p := Small(3, 20)
	p.NMin, p.NMax = 1000, 1001 // unreachable with maxdepth 3, npar 6
	p.MaxRetries = 50
	gen := MustNew(p, 1)
	if _, err := gen.Graph(); err == nil {
		t.Fatal("Graph succeeded on unsatisfiable node range")
	}
}

func TestHetTaskFraction(t *testing.T) {
	gen := MustNew(Large(100, 250), 11)
	for _, frac := range []float64{0.01, 0.1, 0.3, 0.6} {
		g, vOff, realized, err := gen.HetTask(frac)
		if err != nil {
			t.Fatalf("HetTask(%v): %v", frac, err)
		}
		if got, ok := g.OffloadNode(); !ok || got != vOff {
			t.Fatalf("offload node = %d,%v want %d", got, ok, vOff)
		}
		want := float64(g.WCET(vOff)) / float64(g.Volume())
		if math.Abs(realized-want) > 1e-12 {
			t.Fatalf("realized %v inconsistent with graph %v", realized, want)
		}
		// Integer rounding error is at most 1/(rest volume).
		if math.Abs(realized-frac) > 0.02 {
			t.Fatalf("realized fraction %v too far from target %v", realized, frac)
		}
	}
}

func TestHetTaskBadFraction(t *testing.T) {
	gen := MustNew(Small(3, 20), 1)
	for _, frac := range []float64{0, 1, -0.5, 1.5} {
		if _, _, _, err := gen.HetTask(frac); err == nil {
			t.Errorf("HetTask(%v) succeeded, want error", frac)
		}
	}
}

func TestSetOffloadFloor(t *testing.T) {
	g := dag.New()
	a := g.AddNode("", 100, dag.Host)
	b := g.AddNode("", 100, dag.Host)
	g.MustAddEdge(a, b)
	realized := SetOffload(g, b, 0.0001) // would round to 0; floor at 1
	if g.WCET(b) != 1 {
		t.Fatalf("COff = %d, want floor 1", g.WCET(b))
	}
	if realized <= 0 {
		t.Fatalf("realized = %v, want positive", realized)
	}
	if g.Kind(b) != dag.Offload {
		t.Fatal("node not marked offload")
	}
}

func TestSetOffloadExactHalf(t *testing.T) {
	g := dag.New()
	a := g.AddNode("", 10, dag.Host)
	b := g.AddNode("", 3, dag.Host)
	g.MustAddEdge(a, b)
	realized := SetOffload(g, b, 0.5)
	if g.WCET(b) != 10 {
		t.Fatalf("COff = %d, want 10 (half of resulting volume 20)", g.WCET(b))
	}
	if realized != 0.5 {
		t.Fatalf("realized = %v, want 0.5", realized)
	}
}

func TestSeriesOfTasksDiffer(t *testing.T) {
	gen := MustNew(Small(3, 20), 77)
	a, err := gen.Graph()
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Fatal("consecutive draws from one generator are identical")
	}
}

func TestMultiHetTask(t *testing.T) {
	gen := MustNew(Small(10, 40), 42)
	for i := 0; i < 20; i++ {
		g, offs, realized, err := gen.MultiHetTask(3, 0.3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(offs) != 3 {
			t.Fatalf("iter %d: %d offload ids", i, len(offs))
		}
		seen := map[int]bool{}
		classes := map[int]bool{}
		for _, id := range offs {
			if seen[id] {
				t.Fatalf("iter %d: node %d offloaded twice", i, id)
			}
			seen[id] = true
			if g.Kind(id) != dag.Offload {
				t.Fatalf("iter %d: node %d not offload", i, id)
			}
			classes[g.Class(id)] = true
		}
		if len(g.OffloadNodes()) != 3 {
			t.Fatalf("iter %d: graph has %d offload nodes", i, len(g.OffloadNodes()))
		}
		if !classes[1] || !classes[2] {
			t.Fatalf("iter %d: classes %v, want round-robin over {1,2}", i, classes)
		}
		if realized <= 0.15 || realized >= 0.5 {
			t.Fatalf("iter %d: realized total fraction %v far from 0.3", i, realized)
		}
		// Generation must keep the structural invariants Algorithm 1 needs.
		if err := g.Validate(dag.ValidateOptions{RequireSingleSourceSink: true, RequireReduced: true, AllowZeroWCET: true}); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
	}
}

func TestMultiHetTaskErrors(t *testing.T) {
	gen := MustNew(Small(5, 20), 1)
	if _, _, _, err := gen.MultiHetTask(0, 0.3, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, _, err := gen.MultiHetTask(2, 0.3, 0); err == nil {
		t.Error("classes=0 accepted")
	}
	if _, _, _, err := gen.MultiHetTask(2, 1.5, 1); err == nil {
		t.Error("frac=1.5 accepted")
	}
	if _, _, _, err := gen.MultiHetTask(1000, 0.3, 1); err == nil {
		t.Error("k beyond node count accepted")
	}
}

func TestSetOffloadClass(t *testing.T) {
	gen := MustNew(Small(5, 20), 2)
	g, err := gen.Graph()
	if err != nil {
		t.Fatal(err)
	}
	realized := SetOffloadClass(g, 1, 0.2, 3)
	if g.Kind(1) != dag.Offload || g.Class(1) != 3 {
		t.Fatalf("node 1: kind %v class %d, want offload class 3", g.Kind(1), g.Class(1))
	}
	if realized <= 0 || realized >= 1 {
		t.Fatalf("realized fraction %v", realized)
	}
}

func TestUUniFast(t *testing.T) {
	gen := MustNew(Small(5, 20), 3)
	for _, tc := range []struct {
		n     int
		total float64
	}{{1, 0.5}, {4, 2.0}, {16, 3.2}, {50, 0.9}} {
		us := gen.UUniFast(tc.n, tc.total)
		if len(us) != tc.n {
			t.Fatalf("n=%d: got %d utilizations", tc.n, len(us))
		}
		var sum float64
		for _, u := range us {
			if u < 0 {
				t.Fatalf("n=%d: negative utilization %v", tc.n, u)
			}
			sum += u
		}
		if diff := sum - tc.total; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("n=%d: utilizations sum to %v, want %v", tc.n, sum, tc.total)
		}
	}
}
