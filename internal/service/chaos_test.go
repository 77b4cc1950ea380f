package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	hetrta "repro"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
)

// The chaos suite drives the service through seeded fault schedules —
// injected analyzer errors, panics, latency, and cache-shard faults — and
// asserts the serving invariants hold under every interleaving:
//
//   - failures (injected or real) are never cached;
//   - every body served for one (fingerprint, degradation reason) is
//     byte-identical, no matter how many times faults forced recomputation;
//   - an injected panic never wedges the service: waiters are unblocked
//     and the next request for the same key succeeds;
//   - the same seed replays the same outcome sequence, run after run.

// chaosService builds a resilient service around the degrading analyzer
// with the given injector armed.
func chaosService(t *testing.T, inj *faultinject.Injector) *Service {
	t.Helper()
	return newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Limiter:   resilience.LimiterOptions{Capacity: 4, MaxQueue: 8},
			Breaker:   resilience.BreakerOptions{FailureThreshold: 3, ProbeEvery: 4},
			HardCache: resilience.NegCacheOptions{ProbeEvery: 8},
		},
		FaultInjector: inj,
	}, degradingAnalyzer()...)
}

// chaosPool is the deterministic graph pool: three easy chains (distinct
// fingerprints, exact solves at the root) and the hard parallel3 instance.
func chaosPool(t *testing.T) []*hetrta.Graph {
	t.Helper()
	return []*hetrta.Graph{
		chainGraph(t, 8),
		chainGraph(t, 9),
		chainGraph(t, 10),
		parallel3(t),
	}
}

// allowedChaosErr reports whether err is one of the outcomes the chaos
// contract permits: an injected fault, a shed, a leader-panic abort, or a
// context error — never an arbitrary failure.
func allowedChaosErr(err error) bool {
	return errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, resilience.ErrOverloaded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		strings.Contains(err.Error(), "analysis aborted")
}

// bodyKey buckets a served body for the byte-identity invariant: full
// bodies per fingerprint, degraded bodies per (fingerprint, reason).
func bodyKey(r *Result) string {
	if r.DegradedReason != "" {
		return "deg:" + r.DegradedReason + ":" + r.Fingerprint.String()
	}
	return "full:" + r.Fingerprint.String()
}

func TestChaosInvariantsUnderSeededFaults(t *testing.T) {
	const (
		workers = 4
		iters   = 120
	)
	inj := faultinject.Seeded(1337, faultinject.Exec, faultinject.CacheGet, faultinject.CacheAdd)
	s := chaosService(t, inj)

	var mu sync.Mutex
	bodies := make(map[string][]byte) // bodyKey -> first body seen
	var panics, successes int

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pool := chaosPool(t)
			for i := 0; i < iters; i++ {
				g := pool[(w+i)%len(pool)]
				func() {
					defer func() {
						if rec := recover(); rec != nil {
							if _, ok := rec.(faultinject.PanicValue); !ok {
								panic(rec) // a genuine bug, re-raise
							}
							mu.Lock()
							panics++
							mu.Unlock()
						}
					}()
					r, err := s.Analyze(context.Background(), g)
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						if !allowedChaosErr(err) {
							t.Errorf("disallowed error under chaos: %v", err)
						}
						return
					}
					successes++
					k := bodyKey(r)
					if prev, ok := bodies[k]; ok {
						if !bytes.Equal(prev, r.Body) {
							t.Errorf("two different bodies for %s:\n%s\n%s", k, prev, r.Body)
						}
					} else {
						bodies[k] = append([]byte(nil), r.Body...)
					}
					var back hetrta.Report
					if jerr := json.Unmarshal(r.Body, &back); jerr != nil || back.Err != "" {
						t.Errorf("served body invalid or carries an error: %v / %q", jerr, back.Err)
					}
				}()
			}
		}(w)
	}
	wg.Wait()

	st := inj.Stats()
	if st.Errors == 0 || st.Panics == 0 {
		t.Fatalf("chaos schedule too tame: %+v", st)
	}
	if panics == 0 {
		t.Fatal("no injected panic reached a caller — the seam is dead")
	}
	if successes == 0 {
		t.Fatal("no request succeeded under chaos")
	}

	// The service is not wedged: with faults disarmed (the injector stays,
	// but we go through a fresh service sharing nothing), every pool graph
	// still analyzes — and on THIS service, a bounded number of retries
	// recovers a clean answer for every graph despite live faults.
	for gi, g := range chaosPool(t) {
		var r *Result
		for attempt := 0; attempt < 200 && r == nil; attempt++ {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						if _, ok := rec.(faultinject.PanicValue); !ok {
							panic(rec)
						}
					}
				}()
				got, err := s.Analyze(context.Background(), g)
				if err == nil {
					r = got
				} else if !allowedChaosErr(err) {
					t.Fatalf("graph %d: disallowed error: %v", gi, err)
				}
			}()
		}
		if r == nil {
			t.Fatalf("graph %d: no success in 200 attempts — service wedged", gi)
		}
		if prev, ok := bodies[bodyKey(r)]; ok && !bytes.Equal(prev, r.Body) {
			t.Fatalf("graph %d: post-chaos body differs from chaos-time body", gi)
		}
	}
}

// TestChaosReplayIsDeterministic runs the identical seeded schedule twice,
// single-threaded, against fresh services and requires the exact same
// outcome sequence — the property that makes chaos failures debuggable.
func TestChaosReplayIsDeterministic(t *testing.T) {
	run := func() []string {
		inj := faultinject.Seeded(99, faultinject.Exec, faultinject.CacheGet, faultinject.CacheAdd)
		s := chaosService(t, inj)
		pool := chaosPool(t)
		var trace []string
		for i := 0; i < 200; i++ {
			g := pool[i%len(pool)]
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						pv, ok := rec.(faultinject.PanicValue)
						if !ok {
							panic(rec)
						}
						trace = append(trace, "panic:"+pv.Point.String())
					}
				}()
				r, err := s.Analyze(context.Background(), g)
				switch {
				case errors.Is(err, faultinject.ErrInjected):
					trace = append(trace, "err:injected")
				case errors.Is(err, resilience.ErrOverloaded):
					trace = append(trace, "err:shed")
				case err != nil:
					trace = append(trace, "err:"+err.Error())
				case r.DegradedReason != "":
					trace = append(trace, "deg:"+r.DegradedReason+":"+fmt.Sprint(r.Hit))
				default:
					trace = append(trace, "ok:"+fmt.Sprint(r.Hit))
				}
			}()
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverges at step %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestFailureNeverCached pins the never-cache-failures rule at the fault
// seam directly: the first execution fails by injection, the retry
// recomputes (no cached failure) and succeeds, the third hits.
func TestFailureNeverCached(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.Exec, Every: 1, Count: 1, Err: faultinject.ErrInjected})
	s := newTestService(t, Options{FaultInjector: inj})
	ctx := context.Background()
	g := chainGraph(t, 8)

	if _, err := s.Analyze(ctx, g); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	r2, err := s.Analyze(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Hit {
		t.Fatal("second request hit the cache — the failure was cached")
	}
	r3, err := s.Analyze(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Hit || !bytes.Equal(r2.Body, r3.Body) {
		t.Fatal("third request not served the cached success byte-identically")
	}
	if st := s.Stats(); st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
}

// TestDroppedCacheAddRecomputesIdentically: a faulty shard dropping an
// insert costs a recomputation, never a wrong or divergent answer.
func TestDroppedCacheAddRecomputesIdentically(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.CacheAdd, Every: 1, Count: 1, Err: faultinject.ErrInjected})
	s := newTestService(t, Options{FaultInjector: inj})
	ctx := context.Background()

	r1, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Hit {
		t.Fatal("hit after a dropped insert")
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("recomputed body differs:\n%s\n%s", r1.Body, r2.Body)
	}
	r3, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Hit {
		t.Fatal("second insert also lost")
	}
}

// TestForcedCacheMissRecomputesIdentically: CacheGet faults are advisory
// misses; the recomputed entry is byte-identical.
func TestForcedCacheMissRecomputesIdentically(t *testing.T) {
	// Hits 1-2 are request 1's serve + lead double-check (a real miss
	// anyway); hits 3-4 force request 2 past both lookups into a
	// recomputation (one single-shot rule per targeted hit).
	inj := faultinject.New(
		faultinject.Rule{Point: faultinject.CacheGet, Every: 3, Count: 1, Err: faultinject.ErrInjected},
		faultinject.Rule{Point: faultinject.CacheGet, Every: 4, Count: 1, Err: faultinject.ErrInjected},
	)
	s := newTestService(t, Options{FaultInjector: inj})
	ctx := context.Background()

	r1, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Hit {
		t.Fatal("forced miss still hit")
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatal("recomputed body differs after forced miss")
	}
	r3, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Hit {
		t.Fatal("cache still missing after faults exhausted")
	}
}

// TestExecPanicUnblocksWaiters: a leader that panics mid-execution must
// not strand single-flight waiters, and the key stays servable.
func TestExecPanicUnblocksWaiters(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.Exec, Every: 1, Count: 1, Panic: true})
	s := newTestService(t, Options{FaultInjector: inj})
	ctx := context.Background()

	gate := make(chan struct{})
	var once sync.Once
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		once.Do(func() { close(gate) }) // unreached on the panicking first call — Fire precedes exec
		return inner(ctx, g)
	}

	results := make(chan string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(faultinject.PanicValue); !ok {
						panic(rec)
					}
					results <- "panic"
				}
			}()
			_, err := s.Analyze(ctx, chainGraph(t, 8))
			if err != nil {
				results <- "err"
				return
			}
			results <- "ok"
		}()
	}
	wg.Wait()
	close(results)
	var got []string
	for r := range results {
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("a goroutine never returned: %v", got)
	}
	hasPanic := false
	for _, r := range got {
		if r == "panic" {
			hasPanic = true
		}
	}
	if !hasPanic {
		t.Fatalf("no goroutine observed the injected panic: %v", got)
	}
	select {
	case <-gate:
	default:
		// Both goroutines raced into the single panicking flight; the
		// retry below still must succeed.
	}
	r, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatalf("key wedged after leader panic: %v", err)
	}
	if len(r.Body) == 0 {
		t.Fatal("empty result after recovery")
	}
}
