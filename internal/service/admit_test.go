package service

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hetrta "repro"
)

func admitService(t *testing.T, opts Options) *Service {
	t.Helper()
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(4)),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()),
	)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(an, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// admitTaskset builds a small schedulable taskset; reorder flips both the
// task order and the member graphs' node insertion order, producing a
// permuted-but-isomorphic system with the same fingerprint.
func admitTaskset(reorder bool) hetrta.Taskset {
	chain := func(w1, w2, w3 int64) *hetrta.Graph {
		g := hetrta.NewGraph()
		if reorder {
			c := g.AddNode("c", w3, hetrta.Host)
			b := g.AddNode("b", w2, hetrta.Offload)
			a := g.AddNode("a", w1, hetrta.Host)
			g.MustAddEdge(a, b)
			g.MustAddEdge(b, c)
		} else {
			a := g.AddNode("a", w1, hetrta.Host)
			b := g.AddNode("b", w2, hetrta.Offload)
			c := g.AddNode("c", w3, hetrta.Host)
			g.MustAddEdge(a, b)
			g.MustAddEdge(b, c)
		}
		return g
	}
	t1 := hetrta.SporadicTask{G: chain(2, 8, 3), Period: 60, Deadline: 50}
	t2 := hetrta.SporadicTask{G: chain(1, 4, 2), Period: 40, Deadline: 40}
	if reorder {
		return hetrta.Taskset{Tasks: []hetrta.SporadicTask{t2, t1}}
	}
	return hetrta.Taskset{Tasks: []hetrta.SporadicTask{t1, t2}}
}

// TestAdmitCacheHitByteIdentical: a permuted, relabeled-isomorphic taskset
// hits the cache and receives byte-identical JSON.
func TestAdmitCacheHitByteIdentical(t *testing.T) {
	svc := admitService(t, Options{})
	ctx := context.Background()

	r1, err := svc.Admit(ctx, admitTaskset(false))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hit || r1.Shared {
		t.Fatalf("first admission was not a miss: %+v", r1)
	}
	if !r1.Report.Admitted {
		t.Fatalf("test taskset rejected: %+v", r1.Report.Policies)
	}

	r2, err := svc.Admit(ctx, admitTaskset(true))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit {
		t.Fatal("permuted isomorphic taskset missed the cache")
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("cached admit bodies differ:\n%s\n%s", r1.Body, r2.Body)
	}

	st := svc.Stats()
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 || st.Executions != 1 {
		t.Fatalf("stats after hit: %+v", st)
	}
}

// TestAdmitSingleFlight: concurrent admissions of the same taskset execute
// exactly once.
func TestAdmitSingleFlight(t *testing.T) {
	svc := admitService(t, Options{})
	var execs atomic.Int64
	inner := svc.execAdmit
	gate := make(chan struct{})
	svc.execAdmit = func(ctx context.Context, ts hetrta.Taskset, ds []hetrta.TaskDigest, src hetrta.TaskEvalSource) (*hetrta.AdmitReport, error) {
		execs.Add(1)
		<-gate
		return inner(ctx, ts, ds, src)
	}

	const clients = 8
	results := make([]*AdmitResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			results[i], errs[i] = svc.Admit(context.Background(), admitTaskset(i%2 == 1))
		}(i)
	}
	started.Wait()
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions for %d concurrent identical admissions", got, clients)
	}
	var body []byte
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if body == nil {
			body = results[i].Body
		} else if !bytes.Equal(body, results[i].Body) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
}

// TestAdmitFailuresNotCached: failed admissions (invalid tasksets) are
// never cached and are counted as failures.
func TestAdmitFailuresNotCached(t *testing.T) {
	svc := admitService(t, Options{})
	bad := hetrta.Taskset{} // empty: Validate fails inside the analyzer
	if _, err := svc.Admit(context.Background(), bad); err == nil {
		t.Fatal("empty taskset admitted")
	}
	if _, err := svc.Admit(context.Background(), bad); err == nil {
		t.Fatal("empty taskset admitted on retry")
	}
	st := svc.Stats()
	if st.Failures != 2 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("failure stats: %+v", st)
	}
}

// TestAdmitCancelledLeaderRetry: a waiter whose leader was cancelled
// retries with its own context instead of inheriting the failure.
func TestAdmitCancelledLeaderRetry(t *testing.T) {
	svc := admitService(t, Options{})
	inner := svc.execAdmit
	leaderStarted := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var once sync.Once
	svc.execAdmit = func(ctx context.Context, ts hetrta.Taskset, ds []hetrta.TaskDigest, src hetrta.TaskEvalSource) (*hetrta.AdmitReport, error) {
		once.Do(func() {
			close(leaderStarted)
			<-ctx.Done()
		})
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return inner(ctx, ts, ds, src)
	}

	done := make(chan error, 1)
	go func() {
		_, err := svc.Admit(leaderCtx, admitTaskset(false))
		done <- err
	}()
	<-leaderStarted

	waiterDone := make(chan error, 1)
	go func() {
		r, err := svc.Admit(context.Background(), admitTaskset(false))
		if err == nil && r.Report == nil {
			err = errors.New("nil report")
		}
		waiterDone <- err
	}()
	// Let the waiter join the flight, then kill the leader.
	cancelLeader()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter after cancelled leader: %v", err)
	}
}

// TestAdmitAndAnalyzeShareCacheDisjointly: an admission and an analysis of
// content-related inputs never collide in the shared cache. The admission
// leaves one "admit|" entry plus one "eval|" entry per distinct task; the
// analysis adds its own entry — and none of the four lookups hits another
// namespace's key.
func TestAdmitAndAnalyzeShareCacheDisjointly(t *testing.T) {
	svc := admitService(t, Options{})
	ts := admitTaskset(false)
	if _, err := svc.Admit(context.Background(), ts); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Analyze(context.Background(), ts.Tasks[0].G); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	wantEntries := 2 + len(ts.Tasks) // admit| + analyze| + one eval| per task
	if st.Entries != wantEntries || st.Hits != 0 || st.EvalHits != 0 {
		t.Fatalf("expected %d disjoint entries, no hits: %+v", wantEntries, st)
	}
	if st.EvalMisses != uint64(len(ts.Tasks)) {
		t.Fatalf("expected %d eval misses: %+v", len(ts.Tasks), st)
	}
}

func TestServiceTasksetPoliciesOption(t *testing.T) {
	an, err := hetrta.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(an, Options{TasksetPolicies: []hetrta.TasksetPolicy{hetrta.FederatedPolicy()}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := svc.Admit(context.Background(), admitTaskset(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Report.Policies) != 1 || r.Report.Policies[0].Policy != "federated" {
		t.Fatalf("policy option ignored: %+v", r.Report.Policies)
	}
	full := admitService(t, Options{})
	if svc.TasksetSignature() == full.TasksetSignature() {
		t.Fatal("policy set missing from taskset signature")
	}
}

// TestAdmitResultReport: AdmitResult.Report is set exactly on the call
// that ran the admission, and then marshals to Body; a memory hit, a
// shared wait and a store hit return Body alone. On every path Body is
// the bytes a fresh service's whole-set admission serves, including a
// delta against a store-revived base whose handle slot is nil.
func TestAdmitResultReport(t *testing.T) {
	ctx := context.Background()
	check := func(path string, r *AdmitResult, err error, ts hetrta.Taskset, ran bool) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := !r.Hit && !r.Shared; got != ran {
			t.Fatalf("%s: hit %v, shared %v; want ran=%v", path, r.Hit, r.Shared, ran)
		}
		switch {
		case ran && r.Report == nil:
			t.Fatalf("%s: no Report on the call that ran the admission", path)
		case ran:
			if b, err := r.Report.MarshalJSON(); err != nil || !bytes.Equal(b, r.Body) {
				t.Fatalf("%s: Report marshals to %s (%v), Body is %s", path, b, err, r.Body)
			}
		case r.Report != nil:
			t.Fatalf("%s: Report set on a path that did not run the admission", path)
		}
		want, err := admitService(t, Options{}).Admit(ctx, ts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Body, want.Body) {
			t.Fatalf("%s: body differs from a fresh whole-set admission:\n%s\n%s", path, r.Body, want.Body)
		}
	}
	t1, t2 := deltaChain(2, 8, 60, 50), deltaChain(1, 4, 40, 40)
	t3, t4 := deltaChain(3, 5, 80, 70), deltaChain(4, 6, 90, 80)
	base := hetrta.Taskset{Tasks: []hetrta.SporadicTask{t1, t2}}

	svc := storedService(t, filepath.Join(t.TempDir(), "cache.log"), Options{})
	miss, err := svc.Admit(ctx, base)
	check("miss", miss, err, base, true)
	hit, err := svc.Admit(ctx, base)
	check("memory hit", hit, err, base, false)

	// Shared waiter: the leader, a whole-set admission, blocks inside the
	// analyzer until a delta to the same resulting set has joined it.
	entered, release := make(chan struct{}), make(chan struct{})
	inner := svc.execAdmit
	svc.execAdmit = func(ctx context.Context, ts hetrta.Taskset, ds []hetrta.TaskDigest, src hetrta.TaskEvalSource) (*hetrta.AdmitReport, error) {
		close(entered)
		<-release
		return inner(ctx, ts, ds, src)
	}
	type outcome struct {
		r   *AdmitResult
		err error
	}
	grown := hetrta.Taskset{Tasks: []hetrta.SporadicTask{t1, t2, t3}}
	leader, waiter := make(chan outcome), make(chan outcome)
	go func() {
		r, err := svc.Admit(ctx, grown)
		leader <- outcome{r, err}
	}()
	<-entered
	joined := svc.coalesced.Load()
	go func() {
		r, err := svc.AdmitDelta(ctx, miss.Fingerprint, hetrta.TasksetDelta{Add: []hetrta.SporadicTask{t3}})
		waiter <- outcome{r, err}
	}()
	for svc.coalesced.Load() == joined {
		time.Sleep(time.Millisecond)
	}
	close(release)
	led, shared := <-leader, <-waiter
	svc.execAdmit = inner
	check("leader", led.r, led.err, grown, true)
	check("shared waiter", shared.r, shared.err, grown, false)
	if !shared.r.Shared {
		t.Fatal("the delta did not wait on the whole-set admission's flight")
	}

	// Store hit: the base leaves the LRU and revives from its record.
	svc.store.Flush()
	baseKey := svc.admitKeyOf(miss.Fingerprint)
	svc.cache.remove(baseKey)
	revived, err := svc.Admit(ctx, base)
	check("store hit", revived, err, base, false)
	if ws := svc.Stats().Store.WarmHits; ws != 1 {
		t.Fatalf("store hit counted %d warm hits, want 1", ws)
	}

	// A delta against a base revived while t1's eval entry is not
	// resident: t1's handle slot stays nil and t1 goes through the eval
	// cache; the resulting entry has every slot filled.
	svc.cache.remove(baseKey)
	svc.cache.remove(svc.evalKeyOf(t1.Digest()))
	rd, err := svc.AdmitDelta(ctx, miss.Fingerprint, hetrta.TasksetDelta{Add: []hetrta.SporadicTask{t4}})
	check("delta over a nil handle slot", rd, err, hetrta.Taskset{Tasks: []hetrta.SporadicTask{t1, t2, t4}}, true)
	baseEnt, ok := peek(svc.cache, baseKey)
	if !ok || baseEnt.anchor == nil {
		t.Fatal("revived base not resident")
	}
	for i, dg := range baseEnt.anchor.digests {
		if (baseEnt.anchor.handles[i] == nil) != (dg == t1.Digest()) {
			t.Fatalf("revived base: handle slots %v; want nil exactly at t1's", baseEnt.anchor.handles)
		}
	}
	res, ok := peek(svc.cache, svc.admitKeyOf(rd.Fingerprint))
	if !ok || res.anchor == nil || slices.Contains(res.anchor.handles, nil) {
		t.Fatal("the delta's entry does not anchor a handle for every task")
	}
}
