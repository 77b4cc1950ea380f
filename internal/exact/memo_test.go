package exact

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/sched"
	"repro/internal/taskgen"
)

// TestSerialMemoPoolConcurrent runs searches from several goroutines at
// once, so pooled memos pass between searches of different graphs on
// different goroutines. Every result must equal the one a lone search
// gives: a memo released uncleared, or shared by two live searches, would
// prune against another instance's records and change Expansions.
func TestSerialMemoPoolConcurrent(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Small(8, 24), 11)
	p := sched.Hetero(2)
	opts := Options{MaxExpansions: 2000}
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

// TestMemoDominatedMatchesLinearScan feeds one memo random signatures and
// checks every answer of dominated against a linear scan over all
// signatures inserted so far for that mask. Some components sit near
// ±math.MaxInt64/2, so signature sums saturate: the early stop of the
// sum-ordered chains must stay sound there too. A memo limit below the
// call count checks that insertion stops exactly at the cap. The row names
// and seeds date from a sharded memo and are kept so that each row replays
// the same calls it always has.
func TestMemoDominatedMatchesLinearScan(t *testing.T) {
	for _, limit := range []int64{math.MaxInt64, 150} {
		t.Run(fmt.Sprintf("shards1_limit%d", limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1 ^ limit))
			const masks = 6
			// A signature's length and the base of each component depend
			// only on the mask, as in the search.
			bases := make([][]int64, masks)
			for k := range bases {
				bases[k] = make([]int64, 2+k)
				for i := range bases[k] {
					bases[k][i] = []int64{0, math.MaxInt64/2 - 3, math.MinInt64 / 2}[rng.Intn(3)]
				}
			}
			mm := newMemo(limit)
			stored := make([][][]int64, masks)
			var inserted int64
			for call := 0; call < 3000; call++ {
				k := rng.Intn(masks)
				sig := make([]int64, len(bases[k]))
				for i, b := range bases[k] {
					sig[i] = b + rng.Int63n(6)
				}
				want := false
				for _, old := range stored[k] {
					dom := true
					for i := range sig {
						if old[i] > sig[i] {
							dom = false
							break
						}
					}
					if dom {
						want = true
						break
					}
				}
				mask := uint64(k) * 0x9e3779b97f4a7c15
				if got := mm.dominated(mask, sig); got != want {
					t.Fatalf("call %d, mask %d, sig %v: dominated = %v, linear scan says %v", call, k, sig, got, want)
				}
				if !want && inserted < limit {
					stored[k] = append(stored[k], sig)
					inserted++
				}
			}
			if got := mm.entries; got != inserted {
				t.Fatalf("memo holds %d entries, want %d", got, inserted)
			}
		})
	}
}
