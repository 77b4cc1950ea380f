package hetrta

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestCrossValidationDominance is the cross-validation property sweep: over
// hundreds of random (DAG, platform) instances it asserts the dominance
// lattice the whole toolkit rests on —
//
//	exact makespan ≤ simulated makespan ≤ every safe bound
//	(Rhom on the paper's single-offload model; TypedRhom when applicable;
//	Rhet vs the simulated τ′)
//	Naive ≤ Rhom (the §3.2 reduction only ever subtracts)
//
// Each bound is asserted only where its registry entry's SafeFor holds.
// For Rhom that is RhomSafeFor: this very sweep exhibits counterexamples
// beyond the single-offload model — with k ≥ 2 offloads serializing on one
// device, the simulated heterogeneous makespan can exceed
// len + (vol − len)/m, because Graham's argument cannot charge
// device-serialized work against m host cores (see DESIGN.md §4.3/§10;
// TypedRhom is the safe bound there and is asserted unconditionally).
//
// A violated instance is dumped as a JSON repro file (graph, platform,
// report) so the failure can be replayed without re-running the sweep.
func TestCrossValidationDominance(t *testing.T) {
	const iters = 520
	const eps = 1e-6
	rng := rand.New(rand.NewSource(2018))
	dumps := 0
	// checks counts the (instance, bound) upper-bound assertions made, so a
	// narrowed applicability rule cannot quietly shrink the sweep.
	checks := 0

	dump := func(i int, g *Graph, p Platform, rep *Report, why string) {
		if dumps >= 5 {
			return
		}
		dumps++
		repro := struct {
			Iteration int      `json:"iteration"`
			Why       string   `json:"why"`
			Platform  Platform `json:"platform"`
			Graph     *Graph   `json:"graph"`
			Report    *Report  `json:"report"`
		}{i, why, p, g, rep}
		data, err := json.MarshalIndent(repro, "", "  ")
		if err != nil {
			t.Logf("repro marshal failed: %v", err)
			return
		}
		path := filepath.Join(os.TempDir(), fmt.Sprintf("crosscheck-repro-%d.json", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Logf("repro write failed: %v", err)
			return
		}
		t.Logf("repro dumped to %s", path)
	}

	hostSizes := []int{1, 2, 3, 4, 8}
	for i := 0; i < iters; i++ {
		// Random structure: small fork-join DAGs so the exact oracle stays
		// cheap; random platform shape; random offload spread.
		nMin := 5 + rng.Intn(8)
		nMax := nMin + 4 + rng.Intn(14)
		gen, err := NewGenerator(SmallTasks(nMin, nMax), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		m := hostSizes[rng.Intn(len(hostSizes))]
		devClasses := rng.Intn(3)
		classes := []ResourceClass{{Name: "host", Count: m}}
		for c := 1; c <= devClasses; c++ {
			classes = append(classes, ResourceClass{Name: fmt.Sprintf("dev%d", c), Count: 1 + rng.Intn(2)})
		}
		p := NewPlatform(classes...)

		var g *Graph
		if devClasses == 0 {
			g, err = gen.Graph()
			if err != nil {
				t.Fatal(err)
			}
		} else {
			k := 1 + rng.Intn(3)
			frac := 0.05 + 0.55*rng.Float64()
			g, _, _, err = gen.MultiHetTask(k, frac, devClasses)
			if err != nil {
				t.Fatal(err)
			}
		}

		// The bound set under test is the registered lattice, not a
		// hand-picked list: a bound missing from BoundLattice is a bound
		// this sweep silently stops checking, which is exactly what the
		// boundreg analyzer forbids.
		bounds := make([]Bound, 0, len(BoundLattice))
		for _, name := range LatticeNames() {
			bounds = append(bounds, BoundLattice[name].New())
		}
		opts := []Option{
			WithPlatform(p),
			WithBounds(bounds...),
			WithPolicy(BreadthFirst),
		}
		exactOn := g.NumNodes() <= 18
		if exactOn {
			opts = append(opts, WithExactBudget(20_000))
		}
		an, err := NewAnalyzer(opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := an.Analyze(context.Background(), g)
		if err != nil {
			t.Fatalf("iter %d (%v, n=%d): %v", i, p, g.NumNodes(), err)
		}

		sim := float64(rep.Simulation.Makespan)
		fail := func(why string) {
			dump(i, g, p, rep, why)
			t.Errorf("iter %d (%v, n=%d): %s", i, p, g.NumNodes(), why)
		}

		// Each registered bound is asserted per its declared relation,
		// where its SafeFor holds (BoundLattice, i.e. rta.Registry).
		for _, name := range LatticeNames() {
			entry := BoundLattice[name]
			v, ok := rep.BoundValue(name)
			if !ok || (entry.SafeFor != nil && !entry.SafeFor(g, p)) {
				continue
			}
			switch entry.Relation {
			case BoundsSim:
				checks++
				if sim > v+eps {
					fail(fmt.Sprintf("sim %v exceeds %s %v", sim, name, v))
				}
			case BoundsSimTransformed:
				simT := float64(rep.Simulation.MakespanTransformed)
				checks++
				if simT > v+eps {
					fail(fmt.Sprintf("sim(τ') %v exceeds %s %v", simT, name, v))
				}
			case UnsafeDemo:
				// Never asserted as an upper bound; specific relations below.
			default:
				t.Fatalf("bound %q has unknown lattice relation %q", name, entry.Relation)
			}
		}
		// The unsafe §3.2 reduction only ever subtracts from Rhom.
		if nv, ok := rep.Bound("naive"); ok && nv.Skipped == "" {
			if rv, rok := rep.BoundValue("rhom"); rok && nv.Value > rv+eps {
				fail(fmt.Sprintf("naive %v exceeds rhom %v", nv.Value, rv))
			}
		}
		// The exact (or best-found) makespan never exceeds any simulated
		// schedule, and its lower bound never exceeds the makespan.
		if rep.Exact != nil {
			if float64(rep.Exact.Makespan) > sim+eps {
				fail(fmt.Sprintf("exact %d exceeds sim %v", rep.Exact.Makespan, sim))
			}
			if rep.Exact.LowerBound > rep.Exact.Makespan {
				fail(fmt.Sprintf("exact lower bound %d exceeds makespan %d",
					rep.Exact.LowerBound, rep.Exact.Makespan))
			}
		}
		if t.Failed() && dumps >= 5 {
			t.Fatalf("stopping after %d dumped repros", dumps)
		}
	}
	// 922 is the sweep's count with Rhom asserted on every single-offload
	// instance; gating by SafeFor must not assert less.
	if t.Logf("%d (instance, bound) upper-bound checks", checks); checks < 922 {
		t.Errorf("sweep made %d upper-bound checks, fewer than the 922 it made before", checks)
	}
}
