package hetrta_test

import (
	"context"
	"testing"

	hetrta "repro"
	"repro/internal/rta"
)

// twoDevPlatform is the 4-core + 2-device shape used by the extension
// tests, built through the typed-platform constructor.
func twoDevPlatform() hetrta.Platform {
	return hetrta.NewPlatform(
		hetrta.ResourceClass{Name: "host", Count: 4},
		hetrta.ResourceClass{Name: "dev", Count: 2},
	)
}

// Cross-package integration tests: the paper-level invariants that tie the
// analysis (rta/transform), the simulator (sched), and the exact oracle
// (exact) together. Unit tests of the parts live in their packages; these
// check the parts agree with each other.

// TestBoundsSandwichExactOptimum verifies, over a sweep of random tasks:
//
//	exact(τ) ≤ exact(τ') ≤ sim(τ') ≤ Rhet(τ')   and   exact(τ) ≤ sim(τ) ≤ Rhom(τ)
//
// i.e. the transformation only constrains the schedule space, simulations
// are feasible schedules, and both bounds are safe.
func TestBoundsSandwichExactOptimum(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(4, 18), 20180624)
	if err != nil {
		t.Fatal(err)
	}
	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(hetrta.HeteroPlatform(2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		frac := 0.02 + 0.55*float64(i)/40
		g, _, _, err := gen.HetTask(frac)
		if err != nil {
			t.Fatal(err)
		}
		p := hetrta.HeteroPlatform(2)
		rep, err := an.Analyze(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		rhom, _ := rep.BoundValue("rhom")
		rhet, _ := rep.BoundValue("rhet")
		transformed := rep.TransformResult.Transformed

		optOrig, err := hetrta.MinMakespanContext(context.Background(), g, p, hetrta.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		optTrans, err := hetrta.MinMakespanContext(context.Background(), transformed, p, hetrta.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		simOrig, err := hetrta.Simulate(g, p, hetrta.BreadthFirst())
		if err != nil {
			t.Fatal(err)
		}
		simTrans, err := hetrta.Simulate(transformed, p, hetrta.BreadthFirst())
		if err != nil {
			t.Fatal(err)
		}

		if optOrig.Status.String() == "optimal" && optTrans.Status.String() == "optimal" &&
			optOrig.Makespan > optTrans.Makespan {
			t.Errorf("iter %d: exact(τ)=%d > exact(τ')=%d — transformation cannot relax",
				i, optOrig.Makespan, optTrans.Makespan)
		}
		if optTrans.Makespan > simTrans.Makespan {
			t.Errorf("iter %d: exact(τ')=%d > sim(τ')=%d", i, optTrans.Makespan, simTrans.Makespan)
		}
		if float64(simTrans.Makespan) > rhet+1e-9 {
			t.Errorf("iter %d: sim(τ')=%d > Rhet=%v", i, simTrans.Makespan, rhet)
		}
		if optOrig.Makespan > simOrig.Makespan {
			t.Errorf("iter %d: exact(τ)=%d > sim(τ)=%d", i, optOrig.Makespan, simOrig.Makespan)
		}
		if float64(simOrig.Makespan) > rhom+1e-9 {
			t.Errorf("iter %d: sim(τ)=%d > Rhom=%v", i, simOrig.Makespan, rhom)
		}
	}
}

// TestTypedBoundConsistentWithRhet: on single-offload tasks, both Rhet(τ')
// and TypedRhom(τ) are valid — neither dominates universally, but both
// must upper-bound the breadth-first simulation of their respective graph.
func TestTypedBoundConsistentWithRhet(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(6, 30), 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		g, _, _, err := gen.HetTask(0.25)
		if err != nil {
			t.Fatal(err)
		}
		typed, err := rta.TypedRhom(g, hetrta.HeteroPlatform(4))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := hetrta.Simulate(g, hetrta.HeteroPlatform(4), hetrta.BreadthFirst())
		if err != nil {
			t.Fatal(err)
		}
		if float64(sim.Makespan) > typed+1e-9 {
			t.Errorf("iter %d: sim %d > typed bound %v", i, sim.Makespan, typed)
		}
	}
}

// TestFederatedAllocationThroughPublicAPI runs the system-level analysis
// end to end: generated tasks, federated grants through a TasksetAnalyzer,
// and per-grant safety (simulating each heavy task on its granted cores
// never exceeds its admitted bound).
func TestFederatedAllocationThroughPublicAPI(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(10, 50), 314)
	if err != nil {
		t.Fatal(err)
	}
	var ts hetrta.Taskset
	for i := 0; i < 3; i++ {
		g, _, _, err := gen.HetTask(0.3)
		if err != nil {
			t.Fatal(err)
		}
		d := int64(float64(g.Volume()) * 0.8) // heavy: U = 1.25
		ts.Tasks = append(ts.Tasks, hetrta.SporadicTask{G: g, Period: d, Deadline: d})
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(64)),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()),
	)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := hetrta.NewTasksetAnalyzer(an, hetrta.WithTasksetPolicies(hetrta.FederatedPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ta.Admit(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	fed := rep.Policies[0]
	if fed.Policy != "federated" || !fed.Admitted {
		t.Fatalf("federated verdict %+v", fed)
	}
	// Decisions index the taskset in canonical order.
	canon, _ := ts.CanonicalWithDigests()
	tasks := canon.Tasks
	deviceUsers := 0
	for _, gr := range fed.Tasks {
		if !gr.Heavy {
			t.Errorf("task %d with U=1.25 not heavy", gr.Task)
		}
		if gr.R > float64(tasks[gr.Task].Deadline) {
			t.Errorf("task %d admitted with R=%v > D=%d", gr.Task, gr.R, tasks[gr.Task].Deadline)
		}
		if gr.UsesDevice {
			deviceUsers++
		}
		// Safety: simulate the task on its granted cores.
		tr, err := hetrta.Transform(tasks[gr.Task].G)
		if err != nil {
			t.Fatal(err)
		}
		graph := tasks[gr.Task].G
		platform := hetrta.HomogeneousPlatform(gr.Cores)
		if gr.UsesDevice {
			graph = tr.Transformed
			platform = hetrta.HeteroPlatform(gr.Cores)
		}
		sim, err := hetrta.Simulate(graph, platform, hetrta.BreadthFirst())
		if err != nil {
			t.Fatal(err)
		}
		if float64(sim.Makespan) > gr.R+1e-9 {
			t.Errorf("task %d: simulated %d exceeds admitted bound %v", gr.Task, sim.Makespan, gr.R)
		}
	}
	if len(fed.Tasks) != len(tasks) {
		t.Errorf("%d decisions for %d tasks", len(fed.Tasks), len(tasks))
	}
	if deviceUsers > 1 {
		t.Errorf("%d tasks use the single device", deviceUsers)
	}
}

// TestMultiOffloadEndToEnd exercises the future-work pipeline publicly:
// several offload nodes, iterated transformation, typed bound, simulation
// on a 2-device platform.
func TestMultiOffloadEndToEnd(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(12, 40), 555)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Graph()
	if err != nil {
		t.Fatal(err)
	}
	hetrta.SetOffload(g, g.NumNodes()/3, 0.15)
	hetrta.SetOffload(g, 2*g.NumNodes()/3, 0.15)

	mt, err := hetrta.TransformAll(g)
	if err != nil {
		t.Fatal(err)
	}
	typed, err := rta.TypedRhom(g, twoDevPlatform())
	if err != nil {
		t.Fatal(err)
	}
	p := twoDevPlatform()
	for _, graph := range []*hetrta.Graph{g, mt.Transformed} {
		sim, err := hetrta.Simulate(graph, p, hetrta.BreadthFirst())
		if err != nil {
			t.Fatal(err)
		}
		if graph == g && float64(sim.Makespan) > typed+1e-9 {
			t.Errorf("sim %d exceeds typed bound %v", sim.Makespan, typed)
		}
	}
}
