package taskset_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/rta"
	"repro/internal/taskgen"
	"repro/internal/taskset"
)

// evalOutcome is one Bound call's verdict: a value, or an error's text.
type evalOutcome struct {
	v   float64
	err string
}

func boundOutcome(t *testing.T, e *taskset.Eval, p platform.Platform) evalOutcome {
	v, err := e.Bound(context.Background(), p)
	if err == nil {
		return evalOutcome{v: v}
	}
	if want := "hetrta: no safe response-time bound applies on " + p.String(); !errors.Is(err, taskset.ErrNoSafeBound) || err.Error() != want {
		t.Errorf("on %v: error %q, want the served no-safe text %q", p, err, want)
	}
	return evalOutcome{err: err.Error()}
}

// TestEvalBoundAgreement: an Eval gives one verdict per platform — the
// same value, or the served no-safe text — on its first call, on a memo
// hit, and to four goroutines sharing a fresh Eval, over 600 seeded
// single- and multi-offload graphs on platforms with 0–2 machines per
// device class. Dropping typed-rhom from the bound list can only raise a
// value or lose it, and the eval's vol/T is the task's.
func TestEvalBoundAgreement(t *testing.T) {
	type instance struct {
		g *dag.Graph
		p platform.Platform
	}
	rng := rand.New(rand.NewSource(7))
	hostSizes := []int{1, 2, 4, 8}
	insts := make([]instance, 600)
	for i := range insts {
		gen, err := taskgen.New(taskgen.Small(6, 24), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		devClasses := 1 + rng.Intn(2)
		frac := 0.05 + 0.5*rng.Float64()
		var g *dag.Graph
		if rng.Intn(2) == 0 {
			g, _, _, err = gen.HetTask(frac)
		} else {
			g, _, _, err = gen.MultiHetTask(2+rng.Intn(2), frac, devClasses)
		}
		if err != nil {
			t.Fatal(err)
		}
		classes := []platform.ResourceClass{{Name: "host", Count: hostSizes[rng.Intn(len(hostSizes))]}}
		for c := 1; c <= devClasses; c++ {
			classes = append(classes, platform.ResourceClass{Name: fmt.Sprintf("dev%d", c), Count: rng.Intn(3)})
		}
		insts[i] = instance{g: g, p: platform.New(classes...)}
	}

	lists := []struct {
		name           string
		bounds         []rta.Bound
		values, noSafe int
	}{
		{"rhom,rhet,typed-rhom", taskset.RTABounds(), 531, 69},
		{"rhom,rhet", []rta.Bound{rta.RhomBound(), rta.RhetBound()}, 365, 235},
	}
	verdicts := make([][]evalOutcome, len(lists))
	for li, l := range lists {
		verdicts[li] = make([]evalOutcome, len(insts))
		values, noSafe := 0, 0
		for i, in := range insts {
			e, err := taskset.NewEval(l.bounds, in.g)
			if err != nil {
				t.Fatal(err)
			}
			// The policies' vol/T reads the reduced graph's volume; reduction
			// drops only edges, so it is the input task's float.
			if got, want := e.Summary().Utilization(101), (taskset.SporadicTask{G: in.g, Period: 101}).Utilization(); got != want {
				t.Errorf("instance %d: summary utilization %v, task utilization %v", i, got, want)
			}
			first := boundOutcome(t, e, in.p)
			if memo := boundOutcome(t, e, in.p); memo != first {
				t.Errorf("%s, instance %d on %v: first call %+v, memo hit %+v", l.name, i, in.p, first, memo)
			}
			shared, err := taskset.NewEval(l.bounds, in.g)
			if err != nil {
				t.Fatal(err)
			}
			var got [4]evalOutcome
			var wg sync.WaitGroup
			for w := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[w] = boundOutcome(t, shared, in.p)
				}()
			}
			wg.Wait()
			for w, o := range got {
				if o != first {
					t.Errorf("%s, instance %d on %v: goroutine %d got %+v, first call %+v", l.name, i, in.p, w, o, first)
				}
			}
			verdicts[li][i] = first
			if first.err != "" {
				noSafe++
			} else {
				values++
			}
		}
		t.Logf("%s: %d values, %d no safe bound", l.name, values, noSafe)
		if values != l.values || noSafe != l.noSafe {
			t.Errorf("%s: population gives %d values and %d no-safe, want %d and %d", l.name, values, noSafe, l.values, l.noSafe)
		}
	}
	for i, all := range verdicts[0] {
		fewer := verdicts[1][i]
		if fewer.err == "" && (all.err != "" || fewer.v < all.v) {
			t.Errorf("instance %d on %v: {rhom, rhet} gives %+v below {rhom, rhet, typed-rhom}'s %+v", i, insts[i].p, fewer, all)
		}
	}
}
