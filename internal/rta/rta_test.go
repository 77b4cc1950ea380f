package rta

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/taskgen"
	"repro/internal/transform"
)

// fig1Normalized rebuilds the paper's Figure 1(a) running example (WCETs
// reconstructed so that every number quoted in §3.2 matches; see
// internal/dag/graph_test.go).
func fig1Normalized(t testing.TB) *dag.Graph {
	t.Helper()
	g := dag.New()
	v1 := g.AddNode("v1", 2, dag.Host)
	v2 := g.AddNode("v2", 4, dag.Host)
	v3 := g.AddNode("v3", 5, dag.Host)
	v4 := g.AddNode("v4", 2, dag.Host)
	v5 := g.AddNode("v5", 1, dag.Host)
	vOff := g.AddNode("vOff", 4, dag.Offload)
	g.MustAddEdge(v1, v2)
	g.MustAddEdge(v1, v3)
	g.MustAddEdge(v1, v4)
	g.MustAddEdge(v2, v5)
	g.MustAddEdge(v3, v5)
	g.MustAddEdge(v4, vOff)
	g.NormalizeSourceSink()
	return g
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRhomFig1(t *testing.T) {
	g := fig1Normalized(t)
	// §3.2: "Assuming m = 2, the self-interference factor is (18-8)/2 = 5,
	// resulting in Rhom(τ) = 13."
	if got := Rhom(g, platform.Hetero(2)); !almostEqual(got, 13) {
		t.Errorf("Rhom(m=2) = %v, want 13", got)
	}
	// m = 1: the bound degenerates to the volume.
	if got := Rhom(g, platform.Hetero(1)); !almostEqual(got, 18) {
		t.Errorf("Rhom(m=1) = %v, want vol = 18", got)
	}
	// m → ∞: the bound approaches the critical path length.
	if got := Rhom(g, platform.Hetero(1<<20)); math.Abs(got-8) > 0.01 {
		t.Errorf("Rhom(m=2^20) = %v, want ≈ len = 8", got)
	}
}

func TestRhomPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rhom(m=0) did not panic")
		}
	}()
	Rhom(fig1Normalized(t), platform.Platform{})
}

func TestNaiveFig1(t *testing.T) {
	g := fig1Normalized(t)
	// §3.2: subtracting COff's contribution gives Rhom = 11 — which the
	// worst-case schedule of Figure 1(c) (response 12) proves unsafe.
	got, err := Naive(g, platform.Hetero(2))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 11) {
		t.Errorf("Naive(m=2) = %v, want 11", got)
	}
}

func TestNaiveNoOffload(t *testing.T) {
	g := dag.New()
	g.AddNode("", 1, dag.Host)
	if _, err := Naive(g, platform.Hetero(2)); err == nil {
		t.Fatal("Naive on homogeneous graph: want error")
	}
}

func TestRhetFig1Scenario1(t *testing.T) {
	g := fig1Normalized(t)
	tr, err := transform.Transform(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rhet(tr, platform.Hetero(2))
	if err != nil {
		t.Fatal(err)
	}
	// len(G') = 10; the longest path through vOff is 8 < 10, so vOff is off
	// the critical path: Scenario 1, Rhet = 10 + (18-10-4)/2 = 12.
	if res.Scenario != Scenario1 {
		t.Fatalf("scenario = %v, want Scenario1", res.Scenario)
	}
	if !almostEqual(res.R, 12) {
		t.Errorf("Rhet = %v, want 12", res.R)
	}
	if res.LenPrime != 10 || res.VolPrime != 18 || res.COff != 4 {
		t.Errorf("len'=%d vol'=%d COff=%d, want 10/18/4", res.LenPrime, res.VolPrime, res.COff)
	}
	if res.LenPar != 6 || res.VolPar != 10 {
		t.Errorf("lenPar=%d volPar=%d, want 6/10", res.LenPar, res.VolPar)
	}
	// Rhom(GPar) on m=2 = 6 + (10-6)/2 = 8.
	if !almostEqual(res.RhomPar, 8) {
		t.Errorf("RhomPar = %v, want 8", res.RhomPar)
	}
}

// star builds s(1) -> {vOff(cOff), branches...} -> t(1) with the given
// parallel host branch WCETs, a shape that pins down Theorem 1's scenarios.
func star(t testing.TB, cOff int64, branches ...int64) *dag.Graph {
	t.Helper()
	g := dag.New()
	s := g.AddNode("s", 1, dag.Host)
	e := g.AddNode("t", 1, dag.Host)
	v := g.AddNode("vOff", cOff, dag.Offload)
	g.MustAddEdge(s, v)
	g.MustAddEdge(v, e)
	for _, c := range branches {
		b := g.AddNode("", c, dag.Host)
		g.MustAddEdge(s, b)
		g.MustAddEdge(b, e)
	}
	return g
}

func TestRhetScenario21(t *testing.T) {
	// COff = 10 dominates GPar {2,3}: Rhom(GPar) = 3 + (5-3)/2 = 4 ≤ 10.
	g := star(t, 10, 2, 3)
	tr, err := transform.Transform(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rhet(tr, platform.Hetero(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != Scenario21 {
		t.Fatalf("scenario = %v, want Scenario21", res.Scenario)
	}
	// len(G') = 1+10+1 = 12 (through vOff); vol = 17; Eq.3:
	// 12 + (17-12-5)/2 = 12.
	if !almostEqual(res.R, 12) {
		t.Errorf("Rhet = %v, want 12", res.R)
	}
}

func TestRhetScenario22(t *testing.T) {
	// COff = 5 on the critical path; GPar {4,4}: Rhom(GPar) = 4 + 4/2 = 6 > 5.
	g := star(t, 5, 4, 4)
	tr, err := transform.Transform(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rhet(tr, platform.Hetero(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != Scenario22 {
		t.Fatalf("scenario = %v, want Scenario22", res.Scenario)
	}
	// len(G') = 1+5+1 = 7; vol' = 15; Eq.4: 7 - 5 + 4 + (15-7-4)/2 = 8.
	if !almostEqual(res.R, 8) {
		t.Errorf("Rhet = %v, want 8", res.R)
	}
}

func TestScenarioBoundaryEquations3And4Coincide(t *testing.T) {
	// §4: "scenarios 2.1 and 2.2 are equivalent when COff = Rhom(GPar)".
	// GPar {4,4} on m=2 has Rhom(GPar) = 6; set COff = 6 and check both
	// equations produce the same bound.
	g := star(t, 6, 4, 4)
	tr, err := transform.Transform(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Rhet(tr, platform.Hetero(2))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(float64(res.COff), res.RhomPar) {
		t.Fatalf("test setup: COff=%d, RhomPar=%v; want equal", res.COff, res.RhomPar)
	}
	eq3 := float64(res.LenPrime) + (float64(res.VolPrime-res.LenPrime)-float64(res.VolPar))/2
	eq4 := float64(res.LenPrime) - float64(res.COff) + float64(res.LenPar) +
		(float64(res.VolPrime-res.LenPrime)-float64(res.LenPar))/2
	if !almostEqual(eq3, eq4) {
		t.Errorf("Eq.3 = %v, Eq.4 = %v; must coincide at the boundary", eq3, eq4)
	}
	if !almostEqual(res.R, eq3) {
		t.Errorf("Rhet = %v, want %v", res.R, eq3)
	}
}

func TestRhetNeedsDevice(t *testing.T) {
	g := fig1Normalized(t)
	tr, err := transform.Transform(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rhet(tr, platform.Homogeneous(4)); err == nil {
		t.Fatal("Rhet on a device-less platform succeeded")
	}
}

func TestRhetBadM(t *testing.T) {
	g := fig1Normalized(t)
	tr, err := transform.Transform(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rhet(tr, platform.Hetero(0)); err == nil {
		t.Fatal("Rhet(m=0) succeeded")
	}
}

func TestScenarioString(t *testing.T) {
	for s, want := range map[Scenario]string{
		Scenario1:    "scenario 1",
		Scenario21:   "scenario 2.1",
		Scenario22:   "scenario 2.2",
		ScenarioNone: "scenario none",
	} {
		if got := s.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", s, got, want)
		}
	}
}

// TestRhetNeverBelowStructuralLowerBounds checks cheap necessary conditions
// on random tasks: any correct response-time bound for τ' must be at least
// the host workload divided by m and at least the longest host-only chain.
func TestRhetNeverBelowStructuralLowerBounds(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Small(5, 50), 4242)
	for i := 0; i < 200; i++ {
		frac := 0.01 + 0.55*float64(i)/200
		g, vOff, _, err := gen.HetTask(frac)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := transform.Transform(g)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		for _, m := range []int{2, 4, 8, 16} {
			het, err := Rhet(tr, platform.Hetero(m))
			if err != nil {
				t.Fatalf("iter %d m=%d: %v", i, m, err)
			}
			hostWork := float64(g.Volume() - g.WCET(vOff))
			if het.R+1e-9 < hostWork/float64(m) {
				t.Fatalf("iter %d m=%d: Rhet=%v below host load bound %v", i, m, het.R, hostWork/float64(m))
			}
			if het.R+1e-9 < float64(tr.Transformed.CriticalPathLength())-float64(het.COff) {
				t.Fatalf("iter %d m=%d: Rhet=%v below len(G')-COff", i, m, het.R)
			}
			// Rhom is also an upper bound for the heterogeneous platform
			// (DESIGN.md §4.3 argument), so Rhet should usually improve on
			// it when COff is large; at minimum both must be ≥ len(G)/.. —
			// here we just require both bounds positive and finite.
			if math.IsNaN(het.R) || math.IsInf(het.R, 0) || het.R <= 0 {
				t.Fatalf("iter %d m=%d: degenerate Rhet %v", i, m, het.R)
			}
		}
	}
}

// TestTaskSchedulability: with Rhom = 13 and Rhet = 12 on m = 2, a
// deadline of 12 is met only under the heterogeneous analysis — the
// paper's selling point (Section 3.1's test is R ≤ D).
func TestTaskSchedulability(t *testing.T) {
	g := fig1Normalized(t)
	const deadline = 12
	if r := Rhom(g, platform.Hetero(2)); r <= deadline || !almostEqual(r, 13) {
		t.Errorf("Rhom = %v, want 13 (> D = %d)", r, deadline)
	}
	tr, err := transform.Transform(g)
	if err != nil {
		t.Fatal(err)
	}
	het, err := Rhet(tr, platform.Hetero(2))
	if err != nil {
		t.Fatal(err)
	}
	if het.R > deadline || !almostEqual(het.R, 12) {
		t.Errorf("Rhet = %v, want 12 (≤ D = %d)", het.R, deadline)
	}
}
