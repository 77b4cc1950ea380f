package hetrta_test

import (
	"context"
	"math"
	"testing"

	hetrta "repro"
)

// buildFig1 constructs the paper's running example through the public API.
func buildFig1(t testing.TB) *hetrta.Graph {
	t.Helper()
	g := hetrta.NewGraph()
	v1 := g.AddNode("v1", 2, hetrta.Host)
	v2 := g.AddNode("v2", 4, hetrta.Host)
	v3 := g.AddNode("v3", 5, hetrta.Host)
	v4 := g.AddNode("v4", 2, hetrta.Host)
	v5 := g.AddNode("v5", 1, hetrta.Host)
	vOff := g.AddNode("vOff", 4, hetrta.Offload)
	g.MustAddEdge(v1, v2)
	g.MustAddEdge(v1, v3)
	g.MustAddEdge(v1, v4)
	g.MustAddEdge(v2, v5)
	g.MustAddEdge(v3, v5)
	g.MustAddEdge(v4, vOff)
	g.NormalizeSourceSink()
	return g
}

// analyzeOn analyzes g on p with the default bounds (Rhom and Rhet).
func analyzeOn(t testing.TB, g *hetrta.Graph, p hetrta.Platform) *hetrta.Report {
	t.Helper()
	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(p))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestPublicAnalyzePipeline(t *testing.T) {
	g := buildFig1(t)
	if err := g.Validate(hetrta.PaperModel()); err != nil {
		t.Fatal(err)
	}
	rep := analyzeOn(t, g, hetrta.HeteroPlatform(2))
	rhom, _ := rep.BoundValue("rhom")
	rhet, _ := rep.Bound("rhet")
	if math.Abs(rhom-13) > 1e-9 || math.Abs(rhet.Value-12) > 1e-9 {
		t.Fatalf("Rhom=%v Rhet=%v, want 13/12", rhom, rhet.Value)
	}
	if rhet.Scenario != "scenario 1" {
		t.Fatalf("scenario = %q, want scenario 1", rhet.Scenario)
	}
	if err := hetrta.CheckTransform(rep.TransformResult); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSimulateAndExact(t *testing.T) {
	g := buildFig1(t)
	sim, err := hetrta.Simulate(g, hetrta.HeteroPlatform(2), hetrta.BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Makespan != 12 {
		t.Fatalf("sim makespan = %d, want 12", sim.Makespan)
	}
	opt, err := hetrta.MinMakespanContext(context.Background(), g, hetrta.HeteroPlatform(2), hetrta.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Makespan != 9 {
		t.Fatalf("optimal makespan = %d, want 9", opt.Makespan)
	}
	rhom, _ := analyzeOn(t, g, hetrta.HeteroPlatform(2)).BoundValue("rhom")
	if float64(sim.Makespan) > rhom {
		t.Fatal("simulation exceeded Rhom")
	}
}

func TestPublicGeneratorRoundTrip(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(5, 30), 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Graph()
	if err != nil {
		t.Fatal(err)
	}
	frac := hetrta.SetOffload(g, g.NumNodes()/2, 0.25)
	if frac <= 0 || frac >= 1 {
		t.Fatalf("realized fraction %v", frac)
	}
	if rhet, _ := analyzeOn(t, g, hetrta.HeteroPlatform(4)).BoundValue("rhet"); rhet <= 0 {
		t.Fatal("degenerate Rhet")
	}
	if _, err := hetrta.NewGenerator(hetrta.LargeTasks(0, 0), 1); err == nil {
		t.Fatal("accepted invalid params")
	}
}

func TestPublicTaskSchedulability(t *testing.T) {
	rep := analyzeOn(t, buildFig1(t), hetrta.HeteroPlatform(2))
	if ok, found := rep.Schedulable("rhet", 12); !found || !ok {
		t.Fatalf("deadline 12 should be schedulable under Rhet=12 (found %v)", found)
	}
	if ok, found := rep.Schedulable("rhom", 12); !found || ok {
		t.Fatalf("deadline 12 must NOT be schedulable under Rhom=13 (found %v)", found)
	}
}
