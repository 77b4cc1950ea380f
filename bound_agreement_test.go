package hetrta

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/taskset"
)

// TestSweepEvalAgreesWithFacade: the acceptance-ratio sweep's default eval
// (taskset.NewRTAEval) and the facade's TaskEvalHandle over the same three
// safe bounds give the same per-DAG verdict — the same value, or
// ErrNoSafeBound on both sides — on random single- and multi-offload
// graphs and platforms with 0–2 machines per device class.
func TestSweepEvalAgreesWithFacade(t *testing.T) {
	an, err := NewAnalyzer(WithBounds(RhomBound(), RhetBound(), TypedRhomBound()))
	if err != nil {
		t.Fatal(err)
	}
	ta, err := NewTasksetAnalyzer(an)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	hostSizes := []int{1, 2, 4, 8}
	agree, noSafe := 0, 0
	for i := 0; i < 600; i++ {
		gen, err := NewGenerator(SmallTasks(6, 24), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		devClasses := 1 + rng.Intn(2)
		frac := 0.05 + 0.5*rng.Float64()
		var g *Graph
		if rng.Intn(2) == 0 {
			g, _, _, err = gen.HetTask(frac)
		} else {
			g, _, _, err = gen.MultiHetTask(2+rng.Intn(2), frac, devClasses)
		}
		if err != nil {
			t.Fatal(err)
		}
		classes := []ResourceClass{{Name: "host", Count: hostSizes[rng.Intn(len(hostSizes))]}}
		for c := 1; c <= devClasses; c++ {
			classes = append(classes, ResourceClass{Name: fmt.Sprintf("dev%d", c), Count: rng.Intn(3)})
		}
		p := NewPlatform(classes...)

		h, err := ta.PrepareTaskEval(g)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := taskset.NewRTAEval(g).Bound(ctx, p)
		got, gotErr := h.Bound(ctx, p)
		switch {
		case errors.Is(wantErr, ErrNoSafeBound) && errors.Is(gotErr, ErrNoSafeBound):
			noSafe++
		case wantErr != nil || gotErr != nil:
			t.Errorf("instance %d on %v: sweep eval %v, facade %v", i, p, wantErr, gotErr)
		case got != want:
			t.Errorf("instance %d on %v: sweep eval %v, facade %v", i, p, want, got)
		default:
			agree++
		}
	}
	t.Logf("%d agree on a value, %d agree on no safe bound", agree, noSafe)
	if agree == 0 || noSafe == 0 {
		t.Errorf("population does not exercise both verdicts: %d values, %d no-safe", agree, noSafe)
	}
}
