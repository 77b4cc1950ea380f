package hetrta_test

import (
	"context"
	"fmt"
	"log"

	hetrta "repro"
)

// Example reproduces the paper's running example (Figure 1/2): the
// homogeneous bound, the unsafe naive reduction, and the heterogeneous
// bound on the transformed task.
func Example() {
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

	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.NaiveBound(), hetrta.RhetBound()),
	)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	rhom, _ := rep.BoundValue("rhom")
	naive, _ := rep.Bound("naive")
	rhet, _ := rep.Bound("rhet")
	fmt.Printf("vol=%d len=%d\n", g.Volume(), g.CriticalPathLength())
	fmt.Printf("Rhom=%.0f naive=%.0f Rhet=%.0f (%s)\n", rhom, naive.Value, rhet.Value, rhet.Scenario)

	sim, err := hetrta.Simulate(g, hetrta.HeteroPlatform(2), hetrta.BreadthFirst())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("breadth-first response=%d (exceeds the naive bound)\n", sim.Makespan)
	// Output:
	// vol=18 len=8
	// Rhom=13 naive=11 Rhet=12 (scenario 1)
	// breadth-first response=12 (exceeds the naive bound)
}

// Example_schedulability shows the deadline verdicts of both analyses.
func Example_schedulability() {
	g := hetrta.NewGraph()
	pre := g.AddNode("pre", 3, hetrta.Host)
	gpu := g.AddNode("gpu", 9, hetrta.Offload)
	cpu := g.AddNode("cpu", 8, hetrta.Host)
	post := g.AddNode("post", 2, hetrta.Host)
	g.MustAddEdge(pre, gpu)
	g.MustAddEdge(pre, cpu)
	g.MustAddEdge(gpu, post)
	g.MustAddEdge(cpu, post)

	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(hetrta.HeteroPlatform(2)))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	const deadline = 16
	rhom, _ := rep.BoundValue("rhom")
	okHom, _ := rep.Schedulable("rhom", deadline)
	rhet, _ := rep.BoundValue("rhet")
	okHet, _ := rep.Schedulable("rhet", deadline)
	fmt.Printf("Rhom=%.1f schedulable=%v\n", rhom, okHom)
	fmt.Printf("Rhet=%.1f schedulable=%v\n", rhet, okHet)
	// Output:
	// Rhom=18.0 schedulable=false
	// Rhet=14.0 schedulable=true
}
