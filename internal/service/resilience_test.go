package service

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	hetrta "repro"
	"repro/internal/resilience"
)

// parallel3 builds the smallest deterministic hard instance for a
// 1-expansion exact budget: three independent WCET-3 jobs on two host
// cores (incumbent 6 beats the root lower bound 5, so the search must
// branch and immediately exhausts its budget).
func parallel3(t *testing.T) *hetrta.Graph {
	t.Helper()
	g := hetrta.NewGraph()
	g.AddNode("a", 3, hetrta.Host)
	g.AddNode("b", 3, hetrta.Host)
	g.AddNode("c", 3, hetrta.Host)
	return g
}

// degradingAnalyzer are the analyzer options every resilience test uses:
// exact stage with a 1-expansion budget plus degradation, on a 2-core
// platform. chainGraph solves at the root (Optimal); parallel3 degrades.
func degradingAnalyzer() []hetrta.Option {
	return []hetrta.Option{
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithExactOptions(hetrta.ExactOptions{MaxExpansions: 1}),
		hetrta.WithDegradation(hetrta.DegradeOptions{}),
	}
}

func TestDegradedResultCachedSeparatelyAndRouted(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Breaker:   resilience.BreakerOptions{FailureThreshold: 100},
			HardCache: resilience.NegCacheOptions{ProbeEvery: -1},
		},
	}, degradingAnalyzer()...)
	ctx := context.Background()

	// Full attempt: budget exhausts, report is degraded, fingerprint
	// becomes a hard instance.
	r1, err := s.Analyze(ctx, parallel3(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Report.Degraded || r1.Report.DegradedReason != hetrta.DegradedExactBudget {
		t.Fatalf("first result degraded = %v / %q, want budget exhaustion", r1.Report.Degraded, r1.Report.DegradedReason)
	}
	if r1.Hit {
		t.Fatal("first request reported a hit")
	}

	// Second request routes around the exact stage (hard instance) and is
	// served the cached degraded result, byte-identical.
	r2, err := s.Analyze(ctx, parallel3(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit {
		t.Fatal("routed request missed the degraded cache")
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("degraded bodies differ:\n%s\n%s", r1.Body, r2.Body)
	}

	// The full key must NOT hold the degraded entry: its namespace is
	// disjoint by construction.
	if _, ok := s.cache.get(keyOf(recReport, r1.Fingerprint)); ok {
		t.Fatal("degraded report cached under the full key")
	}
	if _, ok := s.cache.get(keyOf(degFull, r1.Fingerprint)); !ok {
		t.Fatal("degraded report missing from the deg namespace")
	}
	st := s.Stats()
	if st.Degraded != 2 {
		t.Fatalf("stats.Degraded = %d, want 2", st.Degraded)
	}
	if st.HardInstances == nil || st.HardInstances.Entries != 1 {
		t.Fatalf("hard-instance stats = %+v, want 1 entry", st.HardInstances)
	}
	// An easy graph is unaffected: full pipeline, not degraded.
	r3, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Report.Degraded {
		t.Fatal("easy graph degraded")
	}
}

func TestBreakerOpensRoutesAndRecovers(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Breaker:   resilience.BreakerOptions{FailureThreshold: 1, ProbeEvery: 2},
			HardCache: resilience.NegCacheOptions{ProbeEvery: -1},
		},
	}, degradingAnalyzer()...)
	ctx := context.Background()

	// One degraded full attempt opens the breaker (threshold 1).
	if _, err := s.Analyze(ctx, parallel3(t)); err != nil {
		t.Fatal(err)
	}
	if !s.breaker.Open() {
		t.Fatal("breaker still closed after a degraded full attempt")
	}

	// While open, even an easy graph is answered bounds-only: Allow #1 is
	// rejected (ProbeEvery 2), so this routes to the breaker variant.
	r2, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Report.Degraded || r2.Report.DegradedReason != hetrta.DegradedBreakerOpen {
		t.Fatalf("breaker-open result = %v / %q, want breaker-open degradation", r2.Report.Degraded, r2.Report.DegradedReason)
	}
	if r2.Report.Exact != nil {
		t.Fatalf("bounds-only report carries exact section: %+v", r2.Report.Exact)
	}

	// Allow #2 is the probe: the easy graph completes the full pipeline,
	// closing the breaker.
	r3, err := s.Analyze(ctx, chainGraph(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if r3.Report.Degraded {
		t.Fatal("probe request came back degraded")
	}
	if s.breaker.Open() {
		t.Fatal("breaker still open after a clean probe")
	}
	// Closed again: full pipeline for new work.
	r4, err := s.Analyze(ctx, chainGraph(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if r4.Report.Degraded || r4.Report.Exact == nil {
		t.Fatal("post-recovery request not served the full pipeline")
	}
	if st := s.Stats(); st.Breaker == nil || st.Breaker.Opens != 1 {
		t.Fatalf("breaker stats = %+v, want 1 open", st.Breaker)
	}
}

func TestUpgradeOnFullSuccess(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Breaker:   resilience.BreakerOptions{FailureThreshold: 100},
			HardCache: resilience.NegCacheOptions{ProbeEvery: 2},
		},
	}, degradingAnalyzer()...)
	ctx := context.Background()

	// Fabricated outcomes: the full pipeline degrades once, then succeeds
	// — the instance "got easier" (more capacity, bigger budget).
	degRep := &hetrta.Report{Platform: s.an.Platform(), Degraded: true, DegradedReason: hetrta.DegradedExactBudget}
	fullRep := &hetrta.Report{Platform: s.an.Platform()}
	calls := 0
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		calls++
		if calls == 1 {
			return degRep, nil
		}
		return fullRep, nil
	}

	g := parallel3(t)
	r1, err := s.Analyze(ctx, g) // full attempt -> degraded, hard-cached
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Report.Degraded {
		t.Fatal("fabricated degraded report lost its flag")
	}
	r2, err := s.Analyze(ctx, g) // ShouldSkip hit 1 -> served degraded cache
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit || !bytes.Equal(r1.Body, r2.Body) {
		t.Fatal("routed request not served the cached degraded body")
	}
	r3, err := s.Analyze(ctx, g) // ShouldSkip hit 2 -> probe -> full success
	if err != nil {
		t.Fatal(err)
	}
	if r3.Report.Degraded {
		t.Fatal("probe's full success still degraded")
	}
	if bytes.Equal(r3.Body, r1.Body) {
		t.Fatal("full body byte-identical to degraded body")
	}
	// Upgraded: the hard entry and the stale degraded entries are gone,
	// and the full result is served from the full key.
	if s.hard.Len() != 0 {
		t.Fatalf("hard cache still holds %d entries after upgrade", s.hard.Len())
	}
	if _, ok := s.cache.get(keyOf(degFull, r1.Fingerprint)); ok {
		t.Fatal("stale degraded entry survived the upgrade")
	}
	r4, err := s.Analyze(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Hit || !bytes.Equal(r4.Body, r3.Body) {
		t.Fatal("post-upgrade request not served the cached full body")
	}
	if calls != 2 {
		t.Fatalf("executions = %d, want 2", calls)
	}
}

func TestLimiterShedsWhenQueueFull(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Limiter: resilience.LimiterOptions{Capacity: 1, MaxQueue: 0},
		},
	})
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		once.Do(func() { close(running) })
		<-release
		return inner(ctx, g)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	var err1 error
	go func() {
		defer wg.Done()
		_, err1 = s.Analyze(ctx, chainGraph(t, 8))
	}()
	<-running

	// Capacity 1 held, queue 0: the second distinct graph is shed.
	_, err := s.Analyze(ctx, chainGraph(t, 9))
	if !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	close(release)
	wg.Wait()
	if err1 != nil {
		t.Fatal(err1)
	}
	st := s.Stats()
	if st.Overload == nil || st.Overload.Shed != 1 {
		t.Fatalf("overload stats = %+v, want 1 shed", st.Overload)
	}
	// The shed request was never cached as a failure: retrying succeeds.
	if _, err := s.Analyze(ctx, chainGraph(t, 9)); err != nil {
		t.Fatal(err)
	}
}

func TestBatchMixesFullAndDegraded(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Breaker:   resilience.BreakerOptions{FailureThreshold: 100},
			HardCache: resilience.NegCacheOptions{ProbeEvery: -1},
		},
	}, degradingAnalyzer()...)
	ctx := context.Background()

	gs := []*hetrta.Graph{chainGraph(t, 8), parallel3(t)}
	res1, err := s.AnalyzeBatch(ctx, gs)
	if err != nil {
		t.Fatal(err)
	}
	if res1[0].Report.Degraded {
		t.Fatal("easy batch item degraded")
	}
	if !res1[1].Report.Degraded || res1[1].Report.DegradedReason != hetrta.DegradedExactBudget {
		t.Fatalf("hard batch item = %v / %q, want budget degradation", res1[1].Report.Degraded, res1[1].Report.DegradedReason)
	}

	// Replay: the easy item hits the full cache, the hard item routes to
	// the degraded cache; both bodies are byte-identical to round one.
	res2, err := s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 8), parallel3(t)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res2 {
		if res2[i].Err != nil {
			t.Fatal(res2[i].Err)
		}
		if !res2[i].Hit {
			t.Fatalf("replay item %d missed the cache", i)
		}
		if !bytes.Equal(res1[i].Body, res2[i].Body) {
			t.Fatalf("replay item %d body differs", i)
		}
	}
}

func TestBatchShedPropagatesPerItem(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Limiter: resilience.LimiterOptions{Capacity: 1, MaxQueue: 0},
		},
	})
	release := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		once.Do(func() { close(running) })
		<-release
		return inner(ctx, g)
	}
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Analyze(ctx, chainGraph(t, 8))
	}()
	<-running

	res, err := s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 9), chainGraph(t, 10)})
	if err != nil {
		t.Fatalf("batch-level error %v; sheds must be per-item", err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, resilience.ErrOverloaded) {
			t.Fatalf("item %d err = %v, want ErrOverloaded", i, r.Err)
		}
	}
	close(release)
	wg.Wait()

	// Nothing was cached for the shed items: a retry recomputes cleanly.
	res, err = s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 9), chainGraph(t, 10)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d still failing after load cleared: %v", i, r.Err)
		}
		if r.Hit {
			t.Fatalf("item %d served from cache — a shed was cached", i)
		}
	}
}

// TestBatchLoneNeverShedsOwnItems: a batch runs no more analyses at once
// than the limiter has slots, so on an otherwise idle service its items
// never queue behind, or get shed by, each other.
func TestBatchLoneNeverShedsOwnItems(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Limiter: resilience.LimiterOptions{Capacity: 1, MaxQueue: 0},
		},
	}, hetrta.WithParallelism(4))
	// Slow analyses: items of a fan-out wider than the limiter overlap.
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		time.Sleep(5 * time.Millisecond)
		return inner(ctx, g)
	}
	gs := []*hetrta.Graph{chainGraph(t, 8), chainGraph(t, 9), chainGraph(t, 10), chainGraph(t, 11)}
	res, err := s.AnalyzeBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d failed on an idle service: %v", i, r.Err)
		}
	}
	if st := s.Stats(); st.Overload.Shed != 0 || st.Executions != 4 {
		t.Fatalf("shed = %d, executions = %d; want 0 and 4", st.Overload.Shed, st.Executions)
	}
}

// TestBatchHoldsNoChargeWhileJoining: a batch item that joins another
// request's flight holds no limiter charge while it waits. Here the
// flight's leader is queued in the limiter behind the batch's first item;
// if the batch held a charge across its fan-out, neither could finish.
func TestBatchHoldsNoChargeWhileJoining(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Limiter: resilience.LimiterOptions{Capacity: 1, MaxQueue: 4},
		},
	})
	gated, shared := chainGraph(t, 9), chainGraph(t, 10)
	gate := make(chan struct{})
	running := make(chan struct{})
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		if g.Fingerprint() == gated.Fingerprint() {
			close(running)
			<-gate
		}
		return inner(ctx, g)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // unwinds a stalled batch and request if the test fails

	batchErr := make(chan error, 1)
	go func() {
		res, err := s.AnalyzeBatch(ctx, []*hetrta.Graph{gated, shared})
		for _, r := range res {
			if err == nil {
				err = r.Err
			}
		}
		batchErr <- err
	}()
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("the batch's first item never started")
	}
	reqErr := make(chan error, 1)
	go func() {
		_, err := s.Analyze(ctx, chainGraph(t, 10))
		reqErr <- err
	}()
	deadline := time.After(5 * time.Second)
	for s.Stats().Overload.QueueDepth == 0 {
		select {
		case <-deadline:
			t.Fatal("the single request never queued in the limiter")
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)

	timeout := time.After(5 * time.Second)
	for _, w := range []struct {
		name string
		ch   chan error
	}{{"batch", batchErr}, {"request", reqErr}} {
		select {
		case err := <-w.ch:
			if err != nil {
				t.Fatalf("%s failed: %v", w.name, err)
			}
		case <-timeout:
			t.Fatalf("%s still blocked 5s after the gate opened", w.name)
		}
	}
}

// TestBatchWidth: a batch fans out over the analyzer's parallelism
// (0 means one worker per CPU), capped at the limiter's capacity so that
// no batch runs more analyses at once than the limiter admits.
func TestBatchWidth(t *testing.T) {
	for _, tc := range []struct {
		name        string
		parallelism int
		capacity    int // 0: no resilience layer
		want        int
	}{
		{"default", 0, 0, runtime.GOMAXPROCS(0)},
		{"parallelism", 3, 0, 3},
		{"capacity-caps-parallelism", 8, 2, 2},
		{"parallelism-below-capacity", 2, 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts Options
			if tc.capacity > 0 {
				opts.Resilience = &ResilienceOptions{
					Limiter: resilience.LimiterOptions{Capacity: tc.capacity},
				}
			}
			s := newTestService(t, opts, hetrta.WithParallelism(tc.parallelism))
			if s.batchWidth != tc.want {
				t.Fatalf("batch width = %d, want %d", s.batchWidth, tc.want)
			}
		})
	}
}

// TestBatchJoinFailedFlightCountsNoFailure: a batch item that joins
// another request's flight shares its failure, exactly as a single
// request would; only the flight's leader counts it in Failures.
func TestBatchJoinFailedFlightCountsNoFailure(t *testing.T) {
	s := newTestService(t, Options{})
	errBoom := errors.New("boom")
	gate := make(chan struct{})
	running := make(chan struct{})
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		close(running)
		<-gate
		return nil, errBoom
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // unwinds a stalled request and batch if the test fails

	reqErr := make(chan error, 1)
	go func() {
		_, err := s.Analyze(ctx, chainGraph(t, 8))
		reqErr <- err
	}()
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("the single request never started")
	}
	type outcome struct {
		res []*Result
		err error
	}
	batchOut := make(chan outcome, 1)
	go func() {
		res, err := s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 8)})
		batchOut <- outcome{res, err}
	}()
	deadline := time.After(5 * time.Second)
	for s.Stats().Coalesced == 0 {
		select {
		case <-deadline:
			t.Fatal("the batch item never joined the request's flight")
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)

	if err := <-reqErr; !errors.Is(err, ErrAnalysis) {
		t.Fatalf("request err = %v, want ErrAnalysis", err)
	}
	out := <-batchOut
	if out.err != nil {
		t.Fatal(out.err)
	}
	if r := out.res[0]; !errors.Is(r.Err, ErrAnalysis) || r.Err.Error() != errBoom.Error() || r.Shared {
		t.Fatalf("batch item = %+v, want the leader's unshared ErrAnalysis %q", r, errBoom)
	}
	if st := s.Stats(); st.Failures != 1 || st.Executions != 1 || st.Coalesced != 1 {
		t.Fatalf("failures = %d, executions = %d, coalesced = %d; want 1, 1, 1",
			st.Failures, st.Executions, st.Coalesced)
	}
}

func TestReadyReflectsWedgedState(t *testing.T) {
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Limiter: resilience.LimiterOptions{Capacity: 1, MaxQueue: 0},
			Breaker: resilience.BreakerOptions{FailureThreshold: 1},
		},
	}, degradingAnalyzer()...)
	if !s.Ready() {
		t.Fatal("fresh service not ready")
	}
	s.breaker.Failure() // open
	if !s.Ready() {
		t.Fatal("open breaker alone must not flip readiness (degraded path still has slots)")
	}
	if err := s.limiter.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("open breaker + saturated limiter still ready")
	}
	s.limiter.Release(1)
	if !s.Ready() {
		t.Fatal("readiness did not recover after capacity freed")
	}

	// A service without resilience is always ready.
	plain := newTestService(t, Options{})
	if !plain.Ready() {
		t.Fatal("plain service not ready")
	}
	if plain.RetryAfter() <= 0 {
		t.Fatal("RetryAfter must always advertise a positive backoff")
	}
}

func TestResilienceStatsShape(t *testing.T) {
	plain := newTestService(t, Options{})
	st := plain.Stats()
	if st.Overload != nil || st.Breaker != nil || st.HardInstances != nil {
		t.Fatalf("plain service exposes resilience stats: %+v", st)
	}
	s := newTestService(t, Options{Resilience: &ResilienceOptions{}}, degradingAnalyzer()...)
	st = s.Stats()
	if st.Overload == nil || st.Breaker == nil || st.HardInstances == nil {
		t.Fatalf("resilient service missing stats sections: %+v", st)
	}
	if st.Breaker.State != "closed" {
		t.Fatalf("fresh breaker state = %q", st.Breaker.State)
	}
	// Without an exact stage there is nothing to degrade: breaker off,
	// limiter still on.
	limOnly := newTestService(t, Options{Resilience: &ResilienceOptions{}})
	st = limOnly.Stats()
	if st.Overload == nil {
		t.Fatal("limiter stats missing")
	}
	if st.Breaker != nil || st.HardInstances != nil {
		t.Fatal("breaker engaged without an exact stage to protect")
	}
	if !strings.Contains(limOnly.Signature(), "plat=") {
		t.Fatal("sanity: signature lost")
	}
}
