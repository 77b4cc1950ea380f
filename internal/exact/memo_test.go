package exact

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/taskgen"
)

// TestSerialMemoPoolConcurrent runs serial searches from several goroutines
// at once, so pooled memos pass between searches of different graphs on
// different goroutines. Every result must equal the one a lone search
// gives: a memo released uncleared, or shared by two live searches, would
// prune against another instance's records and change Expansions.
func TestSerialMemoPoolConcurrent(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Small(8, 24), 11)
	p := sched.Hetero(2)
	opts := Options{MaxExpansions: 2000, Parallelism: 1}
	type outcome struct {
		makespan, expansions int64
		status               Status
	}
	var gs []*dag.Graph
	var want []outcome
	for len(gs) < 40 {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			t.Fatal(err)
		}
		r, err := MinMakespan(context.Background(), g, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Expansions == 0 {
			continue // closed at the root: never takes a memo
		}
		gs = append(gs, g)
		want = append(want, outcome{r.Makespan, r.Expansions, r.Status})
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range gs {
				j := (k + w*len(gs)/goroutines) % len(gs)
				r, err := MinMakespan(context.Background(), gs[j], p, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := (outcome{r.Makespan, r.Expansions, r.Status}); got != want[j] {
					t.Errorf("goroutine %d, graph %d: got %+v, alone %+v", w, j, got, want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
}
