package exact

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/taskgen"
)

// TestSerialMemoPoolConcurrent runs searches from several goroutines at
// once, so pooled memos, with the search state and per-depth scratch they
// carry, pass between searches of different graphs on different
// goroutines. The population mixes graph sizes (4 to 40 nodes) and
// platforms (one to three classes, three to seven machines), so scratch
// grown by a large search serves a small one and a small search's scratch
// has to grow for a large one. Every result must equal the one a lone
// search gives: a memo released uncleared, shared by two live searches, or
// reused at the wrong shape would change Expansions or the schedule.
func TestSerialMemoPoolConcurrent(t *testing.T) {
	threeClass := platform.New(
		platform.ResourceClass{Name: "host", Count: 3},
		platform.ResourceClass{Name: "gpu", Count: 2},
		platform.ResourceClass{Name: "fpga", Count: 2},
	)
	type instance struct {
		g *dag.Graph
		p platform.Platform
	}
	populations := []struct {
		gen  *taskgen.Generator
		plat platform.Platform
	}{
		{taskgen.MustNew(taskgen.Small(4, 9), 11), platform.Hetero(2)},
		{taskgen.MustNew(taskgen.Small(24, 40), 12), platform.Hetero(4)},
		{taskgen.MustNew(taskgen.Small(8, 24), 13), platform.Homogeneous(3)},
		{taskgen.MustNew(taskgen.Small(10, 30), 14), threeClass},
	}
	opts := Options{MaxExpansions: 2000}
	type outcome struct {
		makespan, expansions int64
		status               Status
		spans                string
	}
	var insts []instance
	var want []outcome
	sizes := map[bool]int{}
	for i := 0; len(insts) < 48 && i < 4000; i++ {
		pop := populations[i%len(populations)]
		g, _, _, err := pop.gen.HetTask(0.15)
		if err != nil {
			t.Fatal(err)
		}
		if pop.plat.NumClasses() == 3 {
			taskgen.SetOffloadClass(g, g.NumNodes()/2, 0.2, 2)
		}
		r, err := MinMakespan(context.Background(), g, pop.plat, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Expansions == 0 {
			continue // closed at the root: never takes a memo
		}
		insts = append(insts, instance{g, pop.plat})
		want = append(want, outcome{r.Makespan, r.Expansions, r.Status, spansDigest(r.Spans)})
		sizes[g.NumNodes() > 16]++
	}
	if sizes[false] < 8 || sizes[true] < 8 {
		t.Fatalf("population must mix small and large searched graphs: %d with at most 16 nodes, %d larger", sizes[false], sizes[true])
	}

	const goroutines = 4
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range insts {
				j := (k + w*len(insts)/goroutines) % len(insts)
				if w%2 == 1 {
					j = len(insts) - 1 - j // the other way round through the sizes
				}
				r, err := MinMakespan(context.Background(), insts[j].g, insts[j].p, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := (outcome{r.Makespan, r.Expansions, r.Status, spansDigest(r.Spans)}); got != want[j] {
					t.Errorf("goroutine %d, instance %d: got %+v, alone %+v", w, j, got, want[j])
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
// call count checks that insertion stops exactly at the cap. The
// shards1 rows (six masks; their names and seeds date from a sharded memo
// and are kept so that each row replays the same calls it always has)
// probe the chains; the masks rows spread thousands of masks, mask 0 and
// a group that shares one slot at every table size up to 2^20 among
// them, so the table grows several times with collided probes in it.
func TestMemoDominatedMatchesLinearScan(t *testing.T) {
	type row struct {
		name  string
		seed  int64
		masks []uint64
		calls int
		limit int64
	}
	var rows []row
	for _, limit := range []int64{math.MaxInt64, 150} {
		masks := make([]uint64, 6)
		for k := range masks {
			masks[k] = uint64(k) * 0x9e3779b97f4a7c15
		}
		rows = append(rows, row{fmt.Sprintf("shards1_limit%d", limit), 1 ^ limit, masks, 3000, limit})
	}
	// masks sharing a slot: mask·fibMul has the same top 20 bits for all
	// of them, and they differ below.
	inv := uint64(fibMul) // Newton's iteration for fibMul⁻¹ mod 2⁶⁴
	for i := 0; i < 6; i++ {
		inv *= 2 - fibMul*inv
	}
	spread := rand.New(rand.NewSource(7))
	masks := []uint64{0}
	for low := uint64(1); low <= 40; low++ {
		masks = append(masks, (0xabcde<<44|low*977)*inv)
	}
	for len(masks) < 6000 {
		masks = append(masks, spread.Uint64())
	}
	for _, limit := range []int64{math.MaxInt64, 5000} {
		rows = append(rows, row{fmt.Sprintf("masks%d_limit%d", len(masks), limit), 3 ^ limit, masks, 40000, limit})
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(r.seed))
			// A signature's length and the base of each component depend
			// only on the mask, as in the search.
			bases := make([][]int64, len(r.masks))
			for k := range bases {
				bases[k] = make([]int64, 2+k%6)
				for i := range bases[k] {
					bases[k][i] = []int64{0, math.MaxInt64/2 - 3, math.MinInt64 / 2}[rng.Intn(3)]
				}
			}
			mm := newMemo(r.limit)
			startSlots := len(mm.slots)
			stored := make([][][]int64, len(r.masks))
			var inserted int64
			for call := 0; call < r.calls; call++ {
				// Half the calls revisit the first few masks, so their
				// chains grow long.
				k := rng.Intn(len(r.masks))
				if call%2 == 0 && len(r.masks) > 48 {
					k = rng.Intn(48)
				}
				sig := mm.sigBuf(len(bases[k]))
				var sum int64
				for i, b := range bases[k] {
					sig[i] = b + rng.Int63n(6)
					sum = satAdd(sum, sig[i])
				}
				sig = append([]int64(nil), sig...)
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
				if got := mm.dominated(r.masks[k], sum, len(sig)); got != want {
					t.Fatalf("call %d, mask %#x, sig %v: dominated = %v, linear scan says %v", call, r.masks[k], sig, got, want)
				}
				if !want && inserted < r.limit {
					stored[k] = append(stored[k], sig)
					inserted++
				}
				if 2*len(mm.used) > len(mm.slots) {
					t.Fatalf("call %d: %d masks in %d slots, more than half full", call, len(mm.used), len(mm.slots))
				}
			}
			if got := mm.entries; got != inserted {
				t.Fatalf("memo holds %d entries, want %d", got, inserted)
			}
			distinct := 0
			for _, s := range stored {
				if len(s) > 0 {
					distinct++
				}
			}
			if len(mm.used) != distinct {
				t.Fatalf("memo claims %d slots for %d masks with records", len(mm.used), distinct)
			}
			if len(r.masks) > 1000 && len(mm.slots) < 8*startSlots {
				t.Fatalf("table grew from %d to only %d slots", startSlots, len(mm.slots))
			}
			// A released memo must come back empty at any size.
			putMemo(mm)
			for i, s := range mm.slots {
				if s != (memoSlot{}) {
					t.Fatalf("released memo keeps slot %d = %+v", i, s)
				}
			}
			if len(mm.used) != 0 || len(mm.arena) != 1 || mm.entries != 0 {
				t.Fatalf("released memo keeps %d claimed slots, %d arena words, %d entries", len(mm.used), len(mm.arena), mm.entries)
			}
		})
	}
}
