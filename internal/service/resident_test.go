package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	hetrta "repro"
	"repro/internal/resilience"
	"repro/internal/store"
)

// richAnalyzer are degradingAnalyzer's options plus a simulation policy:
// on chainGraph a direct Analyze fills every rich field of the report
// (transformations, both schedules, the exact outcome).
func richAnalyzer() []hetrta.Option {
	return append(degradingAnalyzer(), hetrta.WithPolicy(hetrta.BreadthFirst))
}

// richFields lists the fields of hetrta.Report that JSON excludes.
func richFields() []reflect.StructField {
	var fs []reflect.StructField
	rt := reflect.TypeOf(hetrta.Report{})
	for i := 0; i < rt.NumField(); i++ {
		if f := rt.Field(i); f.Tag.Get("json") == "-" {
			fs = append(fs, f)
		}
	}
	return fs
}

// checkResident asserts the served-report invariant on one Result: the
// Report equals the decode of its Body, and every rich field is unset.
func checkResident(t *testing.T, path string, r *Result) {
	t.Helper()
	if r == nil || r.Err != nil || r.Report == nil {
		t.Fatalf("%s: no report (%+v)", path, r)
	}
	want, err := hetrta.DecodeReport(r.Body)
	if err != nil {
		t.Fatalf("%s: decoding body: %v", path, err)
	}
	if !reflect.DeepEqual(r.Report, want) {
		t.Errorf("%s: Report differs from DecodeReport(Body):\n got %+v\nwant %+v", path, r.Report, want)
	}
	rv := reflect.ValueOf(r.Report).Elem()
	for _, f := range richFields() {
		if !rv.FieldByIndex(f.Index).IsZero() {
			t.Errorf("%s: Report.%s is set; the service must not retain it", path, f.Name)
		}
	}
}

// TestResidentReportMatchesBody: every path that produces an analysis
// Result hands out the same JSON-visible Report — the one its Body
// decodes to — whether it ran the analyzer, hit memory, waited on
// another request, filled a batch slot, degraded, or came from the store.
func TestResidentReportMatchesBody(t *testing.T) {
	ctx := context.Background()

	// The premise: the analyzer itself fills every rich field, so the
	// service is what drops them.
	an, err := hetrta.NewAnalyzer(richAnalyzer()...)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := an.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	dv := reflect.ValueOf(direct).Elem()
	for _, f := range richFields() {
		if dv.FieldByIndex(f.Index).IsZero() {
			t.Fatalf("direct Analyze leaves Report.%s unset; extend richAnalyzer or the graph so the test covers it", f.Name)
		}
	}

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
	checkResident(t, "miss", miss)

	hit, err := s.Analyze(ctx, relabeledChain(t, 8))
	if err != nil || !hit.Hit {
		t.Fatalf("memory hit: %+v, %v", hit, err)
	}
	checkResident(t, "memory hit", hit)

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
	checkResident(t, "leader", led)
	checkResident(t, "coalesced waiter", shared)

	rs, err := s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 10), relabeledChain(t, 10), chainGraph(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		checkResident(t, fmt.Sprintf("batch slot %d", i), r)
	}

	// A full attempt that exhausts the exact budget degrades and opens
	// the breaker; the next new graph is routed to the bounds-only
	// variant (Allow #1 is rejected with ProbeEvery 2).
	full, err := s.Analyze(ctx, parallel3(t))
	if err != nil || !full.Report.Degraded || full.Report.DegradedReason != hetrta.DegradedExactBudget {
		t.Fatalf("degraded full attempt: %+v, %v", full, err)
	}
	checkResident(t, "degraded full attempt", full)
	variant, err := s.Analyze(ctx, chainGraph(t, 11))
	if err != nil || variant.Report.DegradedReason != hetrta.DegradedBreakerOpen {
		t.Fatalf("degraded variant: %+v, %v", variant, err)
	}
	checkResident(t, "degraded variant", variant)

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
		checkResident(t, "stored miss", r)
	}
	sv1.store.Flush()
	revived, err := sv1.Analyze(ctx, chainGraph(t, 8))
	if err != nil || !revived.Hit || sv1.Stats().Store.WarmHits != 1 {
		t.Fatalf("store hit: %+v, %v", revived, err)
	}
	checkResident(t, "store hit", revived)
	sv1.store.Flush()

	sv2 := openStored(Options{})
	for _, c := range []int64{8, 12} {
		r, err := sv2.Analyze(ctx, chainGraph(t, c))
		if err != nil || !r.Hit || sv2.Stats().Executions != 0 {
			t.Fatalf("warm start: %+v, %v", r, err)
		}
		checkResident(t, "warm start", r)
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
	checkResident(t, "Warmup", warmed)
}
