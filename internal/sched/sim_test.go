package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/rta"
	"repro/internal/taskgen"
	"repro/internal/transform"
)

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

func TestSimulateFig1BreadthFirstIsPaperWorstCase(t *testing.T) {
	// Under FIFO breadth-first dispatch, v4 (and hence vOff) is served
	// last, reproducing the Figure 1(c) schedule: response time 12, above
	// the naively reduced bound of 11 — the paper's unsafety argument.
	g := fig1Normalized(t)
	r, err := Simulate(g, Hetero(2), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 12 {
		t.Fatalf("makespan = %d, want 12 (Figure 1(c))", r.Makespan)
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckWorkConserving(g); err != nil {
		t.Fatal(err)
	}
	naive, err := rta.Naive(g, platform.Hetero(2))
	if err != nil {
		t.Fatal(err)
	}
	if float64(r.Makespan) <= naive {
		t.Fatalf("makespan %d did not exceed the naive bound %v; counterexample lost", r.Makespan, naive)
	}
}

func TestSimulateFig2TransformedSchedule(t *testing.T) {
	// Figure 2(b): the transformed DAG runs in 10 under the same
	// breadth-first scheduler, with vOff overlapping GPar.
	g := fig1Normalized(t)
	tr, err := transform.Transform(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(tr.Transformed, Hetero(2), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 10 {
		t.Fatalf("makespan = %d, want 10 (Figure 2(b))", r.Makespan)
	}
	if err := r.Validate(tr.Transformed); err != nil {
		t.Fatal(err)
	}
	// vOff (ID 5) and GPar head nodes start together at tsync = 4.
	if r.Spans[5].Start != 4 {
		t.Errorf("vOff starts at %d, want 4", r.Spans[5].Start)
	}
	if r.Spans[1].Start != 4 || r.Spans[2].Start != 4 {
		t.Errorf("GPar heads start at %d/%d, want 4/4", r.Spans[1].Start, r.Spans[2].Start)
	}
}

func TestSimulateHomogeneousRunsOffloadOnHost(t *testing.T) {
	g := fig1Normalized(t)
	r, err := Simulate(g, Homogeneous(2), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	vOff := 5
	if r.Spans[vOff].Resource >= 2 {
		t.Fatalf("offload node on resource %d of homogeneous platform", r.Spans[vOff].Resource)
	}
	if r.Makespan != 12 {
		t.Fatalf("makespan = %d, want 12", r.Makespan)
	}
	if rh := rta.Rhom(g, platform.Hetero(2)); float64(r.Makespan) > rh {
		t.Fatalf("homogeneous makespan %d exceeds Rhom %v", r.Makespan, rh)
	}
}

func TestSimulateSingleCoreSerializes(t *testing.T) {
	g := fig1Normalized(t)
	r, err := Simulate(g, Homogeneous(1), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != g.Volume() {
		t.Fatalf("m=1 makespan = %d, want vol = %d", r.Makespan, g.Volume())
	}
}

func TestSimulateManyCoresReachesCriticalPath(t *testing.T) {
	g := fig1Normalized(t)
	r, err := Simulate(g, Hetero(16), CriticalPathFirst())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != g.CriticalPathLength() {
		t.Fatalf("m=16 makespan = %d, want len = %d", r.Makespan, g.CriticalPathLength())
	}
}

func TestSimulateZeroWCETCascade(t *testing.T) {
	g := dag.New()
	a := g.AddNode("", 0, dag.Host)
	b := g.AddNode("", 0, dag.Sync)
	c := g.AddNode("", 0, dag.Sync)
	d := g.AddNode("", 3, dag.Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.MustAddEdge(c, d)
	r, err := Simulate(g, Homogeneous(1), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3 (sync chain is free)", r.Makespan)
	}
	for _, v := range []int{a, b, c} {
		if r.Spans[v].Resource != -1 || r.Spans[v].Start != 0 {
			t.Errorf("zero node %d span %+v, want instant at 0", v, r.Spans[v])
		}
	}
	if r.Spans[d].Start != 0 {
		t.Errorf("d starts at %d, want 0", r.Spans[d].Start)
	}
}

func TestSimulateEmptyGraph(t *testing.T) {
	r, err := Simulate(dag.New(), Hetero(2), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 0 {
		t.Fatalf("empty makespan = %d", r.Makespan)
	}
}

func TestSimulateRejectsBadPlatform(t *testing.T) {
	g := fig1Normalized(t)
	if _, err := Simulate(g, platform.New(platform.ResourceClass{Name: "host", Count: 0}), BreadthFirst()); err == nil {
		t.Fatal("accepted zero-core platform")
	}
	if _, err := Simulate(g, platform.New(platform.ResourceClass{Name: "host", Count: 2}, platform.ResourceClass{Name: "dev", Count: -1}), BreadthFirst()); err == nil {
		t.Fatal("accepted negative devices")
	}
}

func TestSimulateRejectsCycle(t *testing.T) {
	g := dag.New()
	a := g.AddNode("", 1, dag.Host)
	b := g.AddNode("", 1, dag.Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a)
	if _, err := Simulate(g, Homogeneous(1), BreadthFirst()); err == nil {
		t.Fatal("accepted cyclic graph")
	}
}

func TestPolicyPickOrders(t *testing.T) {
	g := dag.New()
	n0 := g.AddNode("", 5, dag.Host)
	n1 := g.AddNode("", 1, dag.Host)
	n2 := g.AddNode("", 9, dag.Host)
	ready := []ReadyItem{{Node: n0, Seq: 0}, {Node: n1, Seq: 1}, {Node: n2, Seq: 2}}
	check := func(p Policy, want int) {
		t.Helper()
		p.Prepare(g)
		if got := p.Pick(ready); got != want {
			t.Errorf("%s.Pick = %d, want %d", p.Name(), got, want)
		}
	}
	check(BreadthFirst(), 0)  // lowest Seq
	check(LIFO(), 2)          // highest Seq
	check(LongestFirst(), 2)  // WCET 9
	check(ShortestFirst(), 1) // WCET 1
	check(CriticalPathFirst(), 2)
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	g := fig1Normalized(t)
	a, err := Simulate(g, Hetero(2), Random(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(g, Hetero(2), Random(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("same seed gave %d and %d", a.Makespan, b.Makespan)
	}
}

// TestRandomReplaysSeedStream checks that a Random policy draws exactly
// what rand.New(rand.NewSource(seed)) draws, over 12,000 Intn calls per
// bound — far past the replayed stream head — for the source that fills a
// seed's cache entry, for later replayers of that entry, and for a policy
// re-prepared after a colliding seed replaced the entry. Bounds cover
// powers of two, rejection-sampled bounds and the Int63n range.
func TestRandomReplaysSeedStream(t *testing.T) {
	bounds := []int{1, 2, 3, 7, 64, 1000, 1<<31 - 1, 1<<40 + 3}
	check := func(t *testing.T, pol Policy, seed int64, n int) {
		t.Helper()
		pol.Prepare(nil)
		r := pol.(*randPolicy).r
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 12000; i++ {
			if got, w := r.Intn(n), want.Intn(n); got != w {
				t.Fatalf("seed %d, Intn(%d) draw %d: %d, rand.NewSource stream %d", seed, n, i, got, w)
			}
		}
	}
	for _, seed := range []int64{1, 2, -3, 1 << 40, 1 + int64(len(streams))} {
		for _, n := range bounds {
			first := Random(seed)
			check(t, first, seed, n) // fills or reuses the cache entry
			check(t, Random(seed), seed, n)
			check(t, first, seed, n) // a policy is prepared once per simulation
		}
	}
	// Seeds that share a cache entry evict each other; each still replays
	// its own stream.
	a, b := Random(5), Random(5+int64(len(streams)))
	for i := 0; i < 3; i++ {
		check(t, a, 5, 3)
		check(t, b, 5+int64(len(streams)), 3)
	}
}

func TestSample(t *testing.T) {
	g := fig1Normalized(t)
	best, worst, err := Sample(g, Hetero(2), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Makespan > worst.Makespan {
		t.Fatalf("best %d > worst %d", best.Makespan, worst.Makespan)
	}
	// The schedule space of Figure 1 contains both the 12 worst case and
	// something at most the transformed bound.
	if worst.Makespan < 11 {
		t.Errorf("worst sampled makespan %d; expected to find ≥ 11", worst.Makespan)
	}
	if _, _, err := Sample(g, Hetero(2), 0, 1); err == nil {
		t.Error("Sample(count=0) succeeded")
	}
}

func TestGanttRenders(t *testing.T) {
	g := fig1Normalized(t)
	r, err := Simulate(g, Hetero(2), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	gantt := r.Gantt(g, 72)
	for _, want := range []string{"core0", "core1", "dev0", "v1", "vOff", "t = 0..12"} {
		if !strings.Contains(gantt, want) {
			t.Errorf("gantt missing %q:\n%s", want, gantt)
		}
	}
	empty, err := Simulate(dag.New(), Hetero(1), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.Gantt(dag.New(), 10), "empty") {
		t.Error("empty gantt not labeled")
	}
}

// TestGrahamBoundHolds is the central safety property: for any
// work-conserving policy, the simulated makespan never exceeds Rhom on the
// homogeneous platform, never exceeds Rhom on the heterogeneous platform
// (DESIGN.md §4.3), and — after transformation — never exceeds Rhet.
func TestGrahamBoundHolds(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Small(5, 60), 2024)
	policies := func() []Policy {
		return append(Heuristics(), Random(1), Random(2), Random(3))
	}
	for i := 0; i < 120; i++ {
		frac := 0.01 + 0.6*float64(i)/120
		g, _, _, err := gen.HetTask(frac)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := transform.Transform(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{2, 4, 8} {
			rhom := rta.Rhom(g, platform.Hetero(m))
			het, err := rta.Rhet(tr, platform.Hetero(m))
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range policies() {
				if r, err := Simulate(g, Homogeneous(m), pol); err != nil {
					t.Fatal(err)
				} else {
					if err := r.Validate(g); err != nil {
						t.Fatalf("iter %d m=%d %s: %v", i, m, pol.Name(), err)
					}
					if float64(r.Makespan) > rhom+1e-9 {
						t.Fatalf("iter %d m=%d %s: hom makespan %d > Rhom %v", i, m, pol.Name(), r.Makespan, rhom)
					}
				}
				if r, err := Simulate(g, Hetero(m), pol); err != nil {
					t.Fatal(err)
				} else if float64(r.Makespan) > rhom+1e-9 {
					t.Fatalf("iter %d m=%d %s: het makespan %d > Rhom %v", i, m, pol.Name(), r.Makespan, rhom)
				}
				if r, err := Simulate(tr.Transformed, Hetero(m), pol); err != nil {
					t.Fatal(err)
				} else {
					if err := r.Validate(tr.Transformed); err != nil {
						t.Fatalf("iter %d m=%d %s: %v", i, m, pol.Name(), err)
					}
					if err := r.CheckWorkConserving(tr.Transformed); err != nil {
						t.Fatalf("iter %d m=%d %s: %v", i, m, pol.Name(), err)
					}
					if float64(r.Makespan) > het.R+1e-9 {
						t.Fatalf("iter %d m=%d %s (%v): transformed makespan %d > Rhet %v",
							i, m, pol.Name(), het.Scenario, r.Makespan, het.R)
					}
				}
			}
		}
	}
}

func TestMakespanNeverBelowLoadOrPath(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Small(5, 40), 321)
	for i := 0; i < 60; i++ {
		g, vOff, _, err := gen.HetTask(0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{1, 2, 4} {
			r, err := Simulate(g, Hetero(m), BreadthFirst())
			if err != nil {
				t.Fatal(err)
			}
			hostWork := g.Volume() - g.WCET(vOff)
			lb := math.Max(float64(g.CriticalPathLength()),
				math.Ceil(float64(hostWork)/float64(m)))
			if float64(r.Makespan) < lb {
				t.Fatalf("iter %d m=%d: makespan %d below lower bound %v", i, m, r.Makespan, lb)
			}
		}
	}
}

// TestMultiDeviceSimulationUsesAllDevices checks the d>1 plumbing: two
// independent offload nodes on two devices overlap.
func TestMultiDeviceSimulationUsesAllDevices(t *testing.T) {
	g := dag.New()
	s := g.AddNode("s", 1, dag.Host)
	o1 := g.AddNode("o1", 10, dag.Offload)
	o2 := g.AddNode("o2", 10, dag.Offload)
	e := g.AddNode("e", 1, dag.Host)
	g.MustAddEdge(s, o1)
	g.MustAddEdge(s, o2)
	g.MustAddEdge(o1, e)
	g.MustAddEdge(o2, e)
	one, err := Simulate(g, platform.Hetero(1), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := platform.Hetero(1).WithDeviceCount(2)
	if err != nil {
		t.Fatal(err)
	}
	two, err := Simulate(g, p2, BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if one.Makespan != 22 || two.Makespan != 12 {
		t.Fatalf("makespans = %d/%d, want 22/12", one.Makespan, two.Makespan)
	}
}

// TestMultiClassSimulation checks the n-class plumbing: nodes of distinct
// device classes run concurrently on their own machines, resources are
// numbered by class, and a class without machines is rejected.
func TestMultiClassSimulation(t *testing.T) {
	g := dag.New()
	s := g.AddNode("s", 1, dag.Host)
	gpu := g.AddNode("gpu", 10, dag.Offload) // class 1
	fpga := g.AddNode("fpga", 10, dag.Offload)
	g.SetClass(fpga, 2)
	e := g.AddNode("e", 1, dag.Host)
	g.MustAddEdge(s, gpu)
	g.MustAddEdge(s, fpga)
	g.MustAddEdge(gpu, e)
	g.MustAddEdge(fpga, e)

	p := platform.New(
		platform.ResourceClass{Name: "host", Count: 1},
		platform.ResourceClass{Name: "gpu", Count: 1},
		platform.ResourceClass{Name: "fpga", Count: 1},
	)
	r, err := Simulate(g, p, BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 12 {
		t.Fatalf("makespan = %d, want 12 (classes overlap)", r.Makespan)
	}
	if err := r.Validate(g); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckWorkConserving(g); err != nil {
		t.Fatal(err)
	}
	if r.Spans[gpu].Resource != 1 || r.Spans[fpga].Resource != 2 {
		t.Fatalf("resources = %d/%d, want 1/2 (numbered by class)", r.Spans[gpu].Resource, r.Spans[fpga].Resource)
	}

	// Dropping the fpga class must be rejected, not silently rehosted.
	if _, err := Simulate(g, platform.Hetero(2), BreadthFirst()); err == nil {
		t.Fatal("fpga node accepted on a platform without an fpga class")
	}
	// But a fully homogeneous platform falls back to host execution.
	hom, err := Simulate(g, platform.Homogeneous(3), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	if err := hom.Validate(g); err != nil {
		t.Fatal(err)
	}
}
