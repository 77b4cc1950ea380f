package service

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	hetrta "repro"
)

// TestStatsMonotonicity pins the documented Stats() contract: each
// cumulative counter is monotonic non-decreasing across successive
// snapshots, even while the service is being hammered concurrently.
// Cross-field consistency is explicitly NOT asserted — snapshots may be
// torn between fields (see the Stats doc comment). The store-tier
// counters (StoreStats) carry the same per-field contract, so the
// service under test has a store attached and its counters are folded
// into the sweep.
func TestStatsMonotonicity(t *testing.T) {
	svc := storedService(t, filepath.Join(t.TempDir(), "cache.log"), Options{})
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					svc.Admit(ctx, admitTaskset(w%2 == 0))
				case 1:
					svc.Analyze(ctx, admitTaskset(false).Tasks[i%2].G)
				case 2:
					svc.Admit(ctx, hetrta.Taskset{}) // failure path: bumps Failures
				}
			}
		}(w)
	}

	counters := func(st Stats) map[string]uint64 {
		return map[string]uint64{
			"Requests":          st.Requests,
			"Hits":              st.Hits,
			"Misses":            st.Misses,
			"Failures":          st.Failures,
			"Executions":        st.Executions,
			"EvalHits":          st.EvalHits,
			"EvalMisses":        st.EvalMisses,
			"EvalFailures":      st.EvalFailures,
			"Store.Appends":     st.Store.Appends,
			"Store.Dropped":     st.Store.Dropped,
			"Store.WarmLoaded":  st.Store.WarmLoaded,
			"Store.WarmHits":    st.Store.WarmHits,
			"Store.DecodeErrs":  st.Store.DecodeErrors,
			"Store.Truncations": st.Store.TailTruncations,
		}
	}

	prev := counters(svc.Stats())
	for i := 0; i < 200; i++ {
		cur := counters(svc.Stats())
		for name, v := range prev {
			if cur[name] < v {
				t.Fatalf("snapshot %d: %s went backwards: %d -> %d", i, name, v, cur[name])
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}
