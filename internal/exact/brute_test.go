package exact

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/taskgen"
)

// bruteMinMakespan is an oracle independent of the search kernel: it runs
// the serial schedule-generation scheme over every topological order of g
// and returns the smallest makespan. By the SGS argument of DESIGN.md §4.3
// that is the optimum. Exponential in n; meant for n ≤ 8.
func bruteMinMakespan(g *dag.Graph, p platform.Platform) int64 {
	n := g.NumNodes()
	cls := make([]int, n)
	for v := range cls {
		c := g.Class(v)
		if p.Devices() == 0 || p.Count(c) == 0 {
			c = 0 // homogeneous fallback; a zero-WCET node occupies nothing
		}
		cls[v] = c
	}
	avail := make([][]int64, p.NumClasses())
	for c := range avail {
		avail[c] = make([]int64, p.Count(c))
	}
	finish := make([]int64, n)
	best := int64(math.MaxInt64)
	var walk func(done uint64, makespan int64)
	walk = func(done uint64, makespan int64) {
		if done == uint64(1)<<uint(n)-1 {
			best = min(best, makespan)
			return
		}
		for v := 0; v < n; v++ {
			if done&(1<<uint(v)) != 0 {
				continue
			}
			start, ready := int64(0), true
			for _, u := range g.Preds(v) {
				ready = ready && done&(1<<uint(u)) != 0
				start = max(start, finish[u])
			}
			if !ready {
				continue
			}
			row, mi := avail[cls[v]], -1
			if g.WCET(v) > 0 {
				mi = 0
				for i := range row {
					if row[i] < row[mi] {
						mi = i
					}
				}
				start = max(start, row[mi])
			}
			finish[v] = start + g.WCET(v)
			if mi < 0 {
				walk(done|1<<uint(v), max(makespan, finish[v]))
				continue
			}
			prev := row[mi]
			row[mi] = finish[v]
			walk(done|1<<uint(v), max(makespan, finish[v]))
			row[mi] = prev
		}
	}
	walk(0, 0)
	return best
}

// TestMinMakespanMatchesBruteForce checks that the branch-and-bound, with
// every pruning rule on, proves exactly the optimum that exhaustive
// enumeration finds — on one- and two-device-class platforms and on graphs
// with zero-WCET nodes. Every instance is searched twice: with the default
// memo limit and with a memo capped at 4 records, since the dominance memo
// speeds the search up but must never decide the optimum. Each graph is a
// subtest, so a mismatch names its instance and the other instances still
// run.
func TestMinMakespanMatchesBruteForce(t *testing.T) {
	twoClass := platform.New(
		platform.ResourceClass{Name: "host", Count: 2},
		platform.ResourceClass{Name: "gpu", Count: 1},
		platform.ResourceClass{Name: "fpga", Count: 1},
	)
	check := func(t *testing.T, g *dag.Graph, p platform.Platform) int64 {
		t.Helper()
		want := bruteMinMakespan(g, p)
		for _, memoLimit := range []int64{0, 4} {
			r, err := MinMakespan(context.Background(), g, p, Options{MemoLimit: memoLimit})
			if err != nil {
				t.Fatalf("on %v: %v", p, err)
			}
			if r.Status != Optimal || r.Makespan != want {
				t.Fatalf("on %v, memo limit %d: got %d (%v), brute force %d\n%s", p, memoLimit, r.Makespan, r.Status, want, g.DOT("g"))
			}
		}
		return want
	}

	t.Run("seed4242", func(t *testing.T) {
		gen := taskgen.MustNew(taskgen.Params{
			PPar: 0.5, NPar: 4, MaxDepth: 2, NMin: 3, NMax: 8, CMin: 1, CMax: 9,
		}, 4242)
		checked := 0
		for i := 0; i < 150; i++ {
			g, err := gen.Graph()
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumNodes()
			if n > 8 {
				continue
			}
			taskgen.SetOffload(g, i%n, 0.3)
			if i%4 == 0 {
				g.SetWCET((i+1)%n, 0)
			}
			// The same graph with a second offload on the other device class.
			g2 := g.Clone()
			taskgen.SetOffloadClass(g2, (i+n/2)%n, 0.2, 2)
			t.Run(fmt.Sprintf("graph_%03d", i), func(t *testing.T) {
				for _, p := range []platform.Platform{platform.Homogeneous(2), platform.Hetero(1), platform.Hetero(2)} {
					check(t, g, p)
				}
				check(t, g2, twoClass)
			})
			checked++
		}
		if checked < 100 {
			t.Fatalf("only %d graphs checked", checked)
		}
	})

	// A second random population, none skipped for size: 12 graphs, every
	// other one with an offload, each on Homogeneous(2) and Hetero(2).
	t.Run("seed31415", func(t *testing.T) {
		gen := taskgen.MustNew(taskgen.Params{
			PPar: 0.6, NPar: 3, MaxDepth: 2, NMin: 3, NMax: 8, CMin: 1, CMax: 5,
		}, 31415)
		for i := 0; i < 12; i++ {
			g, err := gen.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				taskgen.SetOffload(g, g.NumNodes()/2, 0.3)
			}
			t.Run(fmt.Sprintf("graph_%02d", i), func(t *testing.T) {
				if g.NumNodes() > 8 {
					t.Fatalf("%d nodes, more than brute force is meant for", g.NumNodes())
				}
				for _, p := range []platform.Platform{platform.Homogeneous(2), platform.Hetero(2)} {
					check(t, g, p)
				}
			})
		}
	})

	// One machine per class: s(1), then gpu and fpga overlap on their own
	// machines while h runs on the core, then e(1): 1 + max(4, 4, 3) + 1 = 6.
	t.Run("three-class", func(t *testing.T) {
		g := dag.New()
		s := g.AddNode("s", 1, dag.Host)
		gpu := g.AddNode("gpu", 4, dag.Offload) // class 1
		fpga := g.AddNode("fpga", 4, dag.Offload)
		g.SetClass(fpga, 2)
		h := g.AddNode("h", 3, dag.Host)
		e := g.AddNode("e", 1, dag.Host)
		for _, v := range []int{gpu, fpga, h} {
			g.MustAddEdge(s, v)
			g.MustAddEdge(v, e)
		}
		oneOfEach := platform.New(
			platform.ResourceClass{Name: "host", Count: 1},
			platform.ResourceClass{Name: "gpu", Count: 1},
			platform.ResourceClass{Name: "fpga", Count: 1},
		)
		if got := check(t, g, oneOfEach); got != 6 {
			t.Fatalf("three-class optimum %d, want 6", got)
		}
	})
}
