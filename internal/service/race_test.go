package service

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hetrta "repro"
	"repro/internal/taskgen"
)

// TestSingleFlightStress hammers the service from many goroutines with a
// mix of identical and distinct graphs and asserts the single-flight layer
// let the Analyzer run exactly once per distinct key. Run under -race this
// is also the data-race canary for the cache and flight bookkeeping.
func TestSingleFlightStress(t *testing.T) {
	s := newTestService(t, Options{})
	var executions atomic.Int64
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		executions.Add(1)
		return inner(ctx, g)
	}

	const distinct = 8
	const perKey = 8
	graphs := make([]*hetrta.Graph, distinct)
	for i := range graphs {
		graphs[i] = chainGraph(t, int64(5+i))
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	bodies := make([][]byte, distinct*perKey)
	errs := make([]error, distinct*perKey)
	for k := 0; k < distinct; k++ {
		for j := 0; j < perKey; j++ {
			wg.Add(1)
			go func(k, j int) {
				defer wg.Done()
				<-start
				// Each goroutine builds its own isomorphic copy, as distinct
				// HTTP requests would.
				g := chainGraph(t, int64(5+k))
				r, err := s.Analyze(context.Background(), g)
				if err != nil {
					errs[k*perKey+j] = err
					return
				}
				bodies[k*perKey+j] = r.Body
			}(k, j)
		}
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	if got := executions.Load(); got != distinct {
		t.Fatalf("analyzer executed %d times, want exactly %d (one per key)", got, distinct)
	}
	for k := 0; k < distinct; k++ {
		for j := 1; j < perKey; j++ {
			if !bytes.Equal(bodies[k*perKey], bodies[k*perKey+j]) {
				t.Fatalf("key %d: request %d served different bytes", k, j)
			}
		}
	}
	st := s.Stats()
	if st.InFlight != 0 {
		t.Fatalf("inFlight = %d after drain, want 0", st.InFlight)
	}
	if st.Requests != distinct*perKey {
		t.Fatalf("requests = %d, want %d", st.Requests, distinct*perKey)
	}
}

// TestSingleFlightWaitersShareLeader blocks the leader inside the
// analyzer, piles waiters onto the same key, and asserts every non-leader
// was served without a second execution.
func TestSingleFlightWaitersShareLeader(t *testing.T) {
	s := newTestService(t, Options{})
	gate := make(chan struct{})
	var executions atomic.Int64
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		executions.Add(1)
		<-gate
		return inner(ctx, g)
	}

	const waiters = 16
	var started sync.WaitGroup
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	started.Add(waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			_, errs[i] = s.Analyze(context.Background(), chainGraph(t, 8))
		}(i)
	}
	started.Wait()
	close(gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d failed: %v", i, err)
		}
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("analyzer executed %d times, want 1", got)
	}
	st := s.Stats()
	if st.Hits+st.Coalesced != waiters-1 {
		t.Fatalf("hits(%d)+coalesced(%d) = %d, want %d non-leaders served without executing",
			st.Hits, st.Coalesced, st.Hits+st.Coalesced, waiters-1)
	}
}

// TestConcurrentBatches overlaps AnalyzeBatch calls sharing keys; under
// -race this exercises the batch-side flight bookkeeping.
func TestConcurrentBatches(t *testing.T) {
	s := newTestService(t, Options{})
	var executions atomic.Int64
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		executions.Add(1)
		return inner(ctx, g)
	}

	const batches = 6
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, batches)
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			<-start
			gs := []*hetrta.Graph{chainGraph(t, 5), chainGraph(t, 6), chainGraph(t, int64(10+b))}
			res, err := s.AnalyzeBatch(context.Background(), gs)
			if err != nil {
				errs[b] = err
				return
			}
			for _, r := range res {
				if r.Err != nil {
					errs[b] = r.Err
					return
				}
			}
		}(b)
	}
	close(start)
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			t.Fatalf("batch %d failed: %v", b, err)
		}
	}
	// 2 shared keys + 6 per-batch uniques = 8 distinct keys; single-flight
	// must have kept executions to exactly that.
	if got := executions.Load(); got != 8 {
		t.Fatalf("analyzer executed %d times, want 8", got)
	}
}

// pollCountingCtx counts Err() polls and starts failing after errAfter of
// them, standing in for a context the HTTP layer cancels mid-request.
type pollCountingCtx struct {
	calls    atomic.Int64
	errAfter int64
}

func (c *pollCountingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollCountingCtx) Done() <-chan struct{}       { return nil }
func (c *pollCountingCtx) Value(any) any               { return nil }
func (c *pollCountingCtx) Err() error {
	if c.calls.Add(1) > c.errAfter {
		return context.Canceled
	}
	return nil
}

// TestCancelledRequestAbortsExactOracle pins the cancellation path from
// the serving layer into the exact oracle: the oracle must observe the
// cancelled context through its poll interval and abort a search whose
// budget would otherwise keep it running for orders of magnitude longer —
// and the aborted analysis must not be cached.
func TestCancelledRequestAbortsExactOracle(t *testing.T) {
	g, _, _, err := taskgen.MustNew(taskgen.Small(10, 16), 6).HetTask(0.15)
	if err != nil {
		t.Fatal(err)
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithExactOptions(hetrta.ExactOptions{
			MaxExpansions: 1 << 40, // would search far past the abort point
			CtxCheckEvery: 128,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(an, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Route execution through Analyze under the counting context, exactly
	// as a handler would pass its request context down.
	ctx := &pollCountingCtx{errAfter: 6}
	s.exec = func(_ context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		return an.Analyze(ctx, g)
	}

	_, aerr := s.Analyze(context.Background(), g)
	if aerr != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", aerr)
	}
	if polls := ctx.calls.Load(); polls < 2 {
		t.Fatalf("context polled %d times, want the oracle's in-search polling (≥ 2)", polls)
	}
	st := s.Stats()
	if st.Entries != 0 {
		t.Fatalf("cancelled analysis was cached: %+v", st)
	}
	if st.InFlight != 0 {
		t.Fatalf("inFlight = %d after abort, want 0", st.InFlight)
	}
}

// TestPanickingAnalyzerDoesNotStrandWaiters: a panic inside the analyzer
// must propagate to the leader (whose HTTP server recovers per-request)
// while waiters receive an error instead of blocking forever.
func TestPanickingAnalyzerDoesNotStrandWaiters(t *testing.T) {
	s := newTestService(t, Options{})
	gate := make(chan struct{})
	first := true
	var mu sync.Mutex
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		mu.Lock()
		lead := first
		first = false
		mu.Unlock()
		if lead {
			<-gate
			panic("analyzer blew up")
		}
		return inner(ctx, g)
	}

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		s.Analyze(context.Background(), chainGraph(t, 8))
	}()
	deadline := time.After(5 * time.Second)
	for s.Stats().InFlight == 0 {
		select {
		case <-deadline:
			t.Fatal("leader never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	waiterErr := make(chan error, 1)
	go func() {
		_, err := s.Analyze(context.Background(), chainGraph(t, 8))
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join
	close(gate)

	if rec := <-leaderDone; rec == nil {
		t.Fatal("leader did not panic")
	}
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("waiter got nil error from a panicked execution")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded after analyzer panic")
	}
}

// TestWaiterRetriesAfterLeaderCancelled: a leader dying of its own
// cancelled context must not poison waiters whose contexts are live — they
// retry and one of them completes the analysis.
func TestWaiterRetriesAfterLeaderCancelled(t *testing.T) {
	s := newTestService(t, Options{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	gate := make(chan struct{})
	first := true
	var mu sync.Mutex
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		mu.Lock()
		lead := first
		first = false
		mu.Unlock()
		if lead {
			<-gate
			return nil, leaderCtx.Err() // simulate the cancelled leader
		}
		return inner(ctx, g)
	}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Analyze(leaderCtx, chainGraph(t, 8))
		leaderErr <- err
	}()
	// Wait until the leader is inside exec (inFlight == 1).
	deadline := time.After(5 * time.Second)
	for s.Stats().InFlight == 0 {
		select {
		case <-deadline:
			t.Fatal("leader never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	waiterErr := make(chan error, 1)
	var waiterRes *Result
	go func() {
		r, err := s.Analyze(context.Background(), chainGraph(t, 8))
		waiterRes = r
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	cancelLeader()
	close(gate)

	if err := <-leaderErr; err == nil {
		t.Fatal("cancelled leader returned nil error")
	}
	if err := <-waiterErr; err != nil {
		t.Fatalf("waiter with live context failed: %v", err)
	}
	if waiterRes == nil || waiterRes.Report == nil {
		t.Fatal("waiter got no report")
	}
}
