package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	hetrta "repro"
	"repro/internal/resilience"
	"repro/internal/store"
)

// richAnalyzer are degradingAnalyzer's options plus a simulation policy,
// so a report on chainGraph has every section its body can carry.
func richAnalyzer() []hetrta.Option {
	return append(degradingAnalyzer(), hetrta.WithPolicy(hetrta.BreadthFirst))
}

// checkResident asserts the served-result contract on one Result. On
// every path, DegradedReason is the one its Body decodes to. Report is
// set only when the call ran the analysis (ran), and then marshals to
// Body; every other path gets nil, since the cache keeps only the body.
func checkResident(t *testing.T, path string, r *Result, ran bool) {
	t.Helper()
	if r == nil || r.Err != nil || len(r.Body) == 0 {
		t.Fatalf("%s: no result (%+v)", path, r)
	}
	decoded, err := hetrta.DecodeReport(r.Body)
	if err != nil {
		t.Fatalf("%s: decoding body: %v", path, err)
	}
	if r.DegradedReason != decoded.DegradedReason {
		t.Errorf("%s: DegradedReason %q, body says %q", path, r.DegradedReason, decoded.DegradedReason)
	}
	switch {
	case ran && (r.Hit || r.Shared):
		t.Errorf("%s: ran the analysis but Hit=%v Shared=%v", path, r.Hit, r.Shared)
	case ran && r.Report == nil:
		t.Errorf("%s: the call that ran the analysis got no Report", path)
	case ran:
		if b, err := json.Marshal(r.Report); err != nil || !bytes.Equal(b, r.Body) {
			t.Errorf("%s: Report marshals to other bytes than Body (%v)", path, err)
		}
	case r.Report != nil:
		t.Errorf("%s: Report set on a result that ran nothing", path)
	}
}

// TestResidentReportMatchesBody: every path that produces an analysis
// Result serves the body's degraded reason, and only the call that ran
// the analyzer gets a Report, the one its Body was marshaled from —
// whether the result ran the analyzer, hit memory, waited on another
// request, filled a batch slot, degraded, or came from the store.
func TestResidentReportMatchesBody(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, Options{
		Resilience: &ResilienceOptions{
			Breaker:   resilience.BreakerOptions{FailureThreshold: 1, ProbeEvery: 2},
			HardCache: resilience.NegCacheOptions{ProbeEvery: -1},
		},
	}, richAnalyzer()...)

	miss, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil || miss.Hit || miss.Shared {
		t.Fatalf("miss: %+v, %v", miss, err)
	}
	checkResident(t, "miss", miss, true)

	hit, err := s.Analyze(ctx, relabeledChain(t, 8))
	if err != nil || !hit.Hit {
		t.Fatalf("memory hit: %+v, %v", hit, err)
	}
	checkResident(t, "memory hit", hit, false)

	// Coalesced waiter: the leader blocks inside the analyzer until a
	// second request has joined its flight.
	entered, release := make(chan struct{}), make(chan struct{})
	inner := s.exec
	s.exec = func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error) {
		close(entered)
		<-release
		return inner(ctx, g)
	}
	leader := make(chan *Result)
	go func() {
		r, err := s.Analyze(ctx, chainGraph(t, 9))
		if err != nil {
			t.Error(err)
		}
		leader <- r
	}()
	<-entered
	waiter := make(chan *Result)
	joined := s.coalesced.Load()
	go func() {
		r, err := s.Analyze(ctx, relabeledChain(t, 9))
		if err != nil {
			t.Error(err)
		}
		waiter <- r
	}()
	for s.coalesced.Load() == joined {
		time.Sleep(time.Millisecond)
	}
	close(release)
	led, shared := <-leader, <-waiter
	s.exec = inner
	if shared == nil || !shared.Shared {
		t.Fatalf("waiter did not share the leader's flight: %+v", shared)
	}
	checkResident(t, "leader", led, true)
	checkResident(t, "coalesced waiter", shared, false)

	rs, err := s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 10), relabeledChain(t, 10), chainGraph(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		checkResident(t, fmt.Sprintf("batch slot %d", i), r, i == 0)
	}
	if !rs[1].Shared || !rs[2].Hit {
		t.Fatalf("batch: slot 1 Shared=%v, slot 2 Hit=%v; want a shared duplicate and a hit", rs[1].Shared, rs[2].Hit)
	}

	// A full attempt that exhausts the exact budget degrades and opens
	// the breaker; the next new graph is routed to the bounds-only
	// variant (Allow #1 is rejected with ProbeEvery 2).
	full, err := s.Analyze(ctx, parallel3(t))
	if err != nil || full.DegradedReason != hetrta.DegradedExactBudget {
		t.Fatalf("degraded full attempt: %+v, %v", full, err)
	}
	checkResident(t, "degraded full attempt", full, true)
	variant, err := s.Analyze(ctx, chainGraph(t, 11))
	if err != nil || variant.DegradedReason != hetrta.DegradedBreakerOpen {
		t.Fatalf("degraded variant: %+v, %v", variant, err)
	}
	checkResident(t, "degraded variant", variant, true)
	// The hard instance is routed to its cached degraded result.
	degHit, err := s.Analyze(ctx, parallel3(t))
	if err != nil || !degHit.Hit || degHit.DegradedReason != hetrta.DegradedExactBudget {
		t.Fatalf("degraded hit: %+v, %v", degHit, err)
	}
	checkResident(t, "degraded hit", degHit, false)

	// Store tier: one entry per shard, so the second graph evicts the
	// first and the third request revives it from the log.
	path := filepath.Join(t.TempDir(), "cache.log")
	openStored := func(opts Options) *Service {
		svc := newTestService(t, opts, richAnalyzer()...)
		st, err := store.Open(store.Options{Path: path, Generation: svc.Generation()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		if err := svc.AttachStore(st); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	sv1 := openStored(Options{CacheEntries: 1, Shards: 1})
	for _, c := range []int64{8, 12} {
		r, err := sv1.Analyze(ctx, chainGraph(t, c))
		if err != nil {
			t.Fatal(err)
		}
		checkResident(t, "stored miss", r, true)
	}
	sv1.store.Flush()
	revived, err := sv1.Analyze(ctx, chainGraph(t, 8))
	if err != nil || !revived.Hit || sv1.Stats().Store.WarmHits != 1 {
		t.Fatalf("store hit: %+v, %v", revived, err)
	}
	checkResident(t, "store hit", revived, false)
	sv1.store.Flush()

	sv2 := openStored(Options{})
	for _, c := range []int64{8, 12} {
		r, err := sv2.Analyze(ctx, chainGraph(t, c))
		if err != nil || !r.Hit || sv2.Stats().Executions != 0 {
			t.Fatalf("warm start: %+v, %v", r, err)
		}
		checkResident(t, "warm start", r, false)
	}

	logBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	peer := newTestService(t, Options{}, richAnalyzer()...)
	if ws, err := peer.Warmup(bytes.NewReader(logBytes)); err != nil || ws.Loaded == 0 {
		t.Fatalf("Warmup: %+v, %v", ws, err)
	}
	warmed, err := peer.Analyze(ctx, chainGraph(t, 12))
	if err != nil || !warmed.Hit || peer.Stats().Executions != 0 {
		t.Fatalf("Warmup hit: %+v, %v", warmed, err)
	}
	checkResident(t, "Warmup", warmed, false)
}
