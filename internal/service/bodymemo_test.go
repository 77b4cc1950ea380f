package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	hetrta "repro"
	"repro/internal/dag"
	"repro/internal/resilience/faultinject"
)

// graphBody is g's wire form, as a client would send it.
func graphBody(t *testing.T, g *hetrta.Graph) []byte {
	t.Helper()
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serveBody serves one body as the daemon's /v1/analyze does: the memo
// first, then decode and AnalyzeBody.
func serveBody(t *testing.T, s *Service, body []byte) *Result {
	t.Helper()
	res, k := s.LookupBody(body)
	if res != nil {
		return res
	}
	g, err := dag.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.AnalyzeBody(context.Background(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// serveDecoded serves one body by decoding it and calling Analyze, as
// every body was served before the memo.
func serveDecoded(t *testing.T, s *Service, body []byte) *Result {
	t.Helper()
	g, err := dag.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Analyze(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requestStats is the part of Stats both serving paths must agree on.
func requestStats(st Stats) [5]uint64 {
	return [5]uint64{st.Requests, st.Hits, st.Misses, st.Executions, st.Degraded}
}

// TestBodyPathMatchesDecodedPath: repeats and relabelings of a graph whose
// report is evicted midway by a small cache are served with the same
// bodies, hit flags, fingerprints and request counters through the memo as
// by decoding every body. Each request passes the CacheGet fault seam as
// often on both paths, with and without an armed error rule, so chaos
// schedules replay unchanged.
func TestBodyPathMatchesDecodedPath(t *testing.T) {
	t.Run("unarmed", func(t *testing.T) { testBodyPathMatchesDecodedPath(t) })
	t.Run("every third CacheGet fails", func(t *testing.T) {
		testBodyPathMatchesDecodedPath(t, faultinject.Rule{Point: faultinject.CacheGet, Every: 3, Err: faultinject.ErrInjected})
	})
}

func testBodyPathMatchesDecodedPath(t *testing.T, rules ...faultinject.Rule) {
	a, aRelabeled := graphBody(t, chainGraph(t, 8)), graphBody(t, relabeledChain(t, 8))
	seq := [][]byte{a, a, aRelabeled, a, nil, a, a, aRelabeled}
	type outcome struct {
		body     []byte
		hit      bool
		fp       dag.Fingerprint
		counters [5]uint64
		fires    uint64
	}
	run := func(serve func(*testing.T, *Service, []byte) *Result) ([]outcome, *Service, faultinject.Stats) {
		inj := faultinject.New(rules...)
		s := newTestService(t, Options{CacheEntries: 4, Shards: 1, FaultInjector: inj})
		var out []outcome
		for _, body := range seq {
			if body == nil {
				// Four fresh graphs, decoded on both paths so the memo
				// keeps a's body, evict a's report from the 4 entries.
				for w := int64(20); w < 24; w++ {
					serveDecoded(t, s, graphBody(t, chainGraph(t, w)))
				}
				continue
			}
			before := inj.Stats().Hits[faultinject.CacheGet]
			r := serve(t, s, body)
			fires := inj.Stats().Hits[faultinject.CacheGet] - before
			out = append(out, outcome{r.Body, r.Hit, r.Fingerprint, requestStats(s.Stats()), fires})
		}
		return out, s, inj.Stats()
	}
	want, _, wantInj := run(serveDecoded)
	got, s, gotInj := run(serveBody)
	for i := range want {
		w, g := want[i], got[i]
		if !bytes.Equal(g.body, w.body) || g.hit != w.hit || g.fp != w.fp || g.counters != w.counters || g.fires != w.fires {
			t.Fatalf("request %d: body path (hit=%v counters=%v CacheGet=%d) differs from decoded path (hit=%v counters=%v CacheGet=%d)",
				i, g.hit, g.counters, g.fires, w.hit, w.counters, w.fires)
		}
	}
	if gotInj != wantInj {
		t.Fatalf("fault injector: body path %+v, decoded path %+v", gotInj, wantInj)
	}
	if len(rules) > 0 && gotInj.Errors == 0 {
		t.Fatal("the CacheGet rule never fired")
	}
	// Both bodies are known after their first request: five memo hits,
	// the first after the eviction a miss.
	if st := s.Stats(); st.BodyMemoHits != 5 {
		t.Fatalf("BodyMemoHits = %d, want 5", st.BodyMemoHits)
	}
}

// TestLookupBodyEvictedReportReanalyzed: a body the memo knows whose
// report was evicted is re-analyzed, not served from the memo, and the
// new report is byte-identical to the first.
func TestLookupBodyEvictedReportReanalyzed(t *testing.T) {
	s := newTestService(t, Options{CacheEntries: 2, Shards: 1})
	a := graphBody(t, chainGraph(t, 8))
	first := serveBody(t, s, a)
	for w := int64(20); w < 22; w++ { // evicts a's report, not its body
		serveDecoded(t, s, graphBody(t, chainGraph(t, w)))
	}
	res, k := s.LookupBody(a)
	if res != nil || !k.known {
		t.Fatalf("LookupBody after eviction: result %v, known %v; want no result, known", res, k.known)
	}
	g, err := dag.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.AnalyzeBody(context.Background(), g, k)
	if err != nil {
		t.Fatal(err)
	}
	if again.Hit || again.Shared || !bytes.Equal(again.Body, first.Body) || again.Fingerprint != first.Fingerprint {
		t.Fatalf("re-analysis: hit=%v shared=%v, same body %v", again.Hit, again.Shared, bytes.Equal(again.Body, first.Body))
	}
	if st := s.Stats(); st.Executions != 4 || st.Requests != 4 {
		t.Fatalf("stats = %+v, want 4 requests and 4 executions", st)
	}
}

// TestLookupBodyUnknownIsNotMemoized: looking a body up memoizes nothing;
// only AnalyzeBody, after a successful decode, does. A body that fails to
// decode therefore never enters the memo.
func TestLookupBodyUnknownIsNotMemoized(t *testing.T) {
	s := newTestService(t, Options{})
	for range 3 {
		if res, k := s.LookupBody([]byte(`{"nodes":[`)); res != nil || k.known {
			t.Fatal("malformed body served or known")
		}
	}
	if n := s.memo.len(); n != 0 {
		t.Fatalf("memo holds %d bodies after lookups alone", n)
	}
	if st := s.Stats(); st.Requests != 0 || st.BodyMemoHits != 0 {
		t.Fatalf("lookups alone counted: %+v", st)
	}
}

// TestBodyMemoBoundedByCacheCapacity: after many more distinct bodies than
// the cache holds, the memo holds no more than the cache's capacity.
func TestBodyMemoBoundedByCacheCapacity(t *testing.T) {
	s := newTestService(t, Options{CacheEntries: 8, Shards: 2})
	capacity := s.Stats().Capacity
	for w := int64(1); w <= 40; w++ {
		serveBody(t, s, graphBody(t, chainGraph(t, w)))
		if n := s.memo.len(); n > capacity {
			t.Fatalf("after %d bodies the memo holds %d, over the cache capacity %d", w, n, capacity)
		}
	}
	if n := s.memo.len(); n < capacity/2 {
		t.Fatalf("memo holds only %d bodies, want at least half of %d", n, capacity)
	}
}

// TestBodyMemoKeepsHotBodies: a body hit at least once per generation
// survives any number of one-off bodies; one never hit again is dropped
// within two generations.
func TestBodyMemoKeepsHotBodies(t *testing.T) {
	const capacity = 64
	m := newBodyMemo(capacity)
	sum := func(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }
	hot, cold := sum("hot"), sum("cold")
	m.put(hot, dag.Fingerprint{1})
	m.put(cold, dag.Fingerprint{2})
	for i := range 10 * capacity {
		m.put(sum(fmt.Sprint("one-off ", i)), dag.Fingerprint{})
		if i%(capacity/4) == 0 {
			if fp, ok := m.get(hot); !ok || fp != (dag.Fingerprint{1}) {
				t.Fatalf("hot body lost after %d one-off bodies", i)
			}
		}
		if n := m.len(); n > capacity {
			t.Fatalf("memo holds %d entries, over its capacity %d", n, capacity)
		}
	}
	if _, ok := m.get(cold); ok {
		t.Fatal("a body never hit again survived ten generations")
	}
	if _, ok := newBodyMemo(1).get(hot); ok {
		t.Fatal("a memo of capacity 1 remembered a body")
	}
}

// TestBodyPathConcurrent: goroutines serving repeats, relabelings and
// fresh graphs at once, through a cache and memo small enough to evict,
// each get the body every request for their graph gets. Run under -race.
func TestBodyPathConcurrent(t *testing.T) {
	s := newTestService(t, Options{CacheEntries: 4, Shards: 1})
	ref := newTestService(t, Options{})
	var bodies [][]byte
	want := make(map[dag.Fingerprint][]byte)
	for w := int64(1); w <= 6; w++ {
		for _, g := range []*hetrta.Graph{chainGraph(t, w), relabeledChain(t, w)} {
			body := graphBody(t, g)
			bodies = append(bodies, body)
			r := serveDecoded(t, ref, body)
			want[r.Fingerprint] = r.Body
		}
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 60 {
				body := bodies[(i*(w+1)+w)%len(bodies)]
				res, k := s.LookupBody(body)
				if res == nil {
					g, err := dag.Decode(body)
					if err != nil {
						t.Error(err)
						return
					}
					if res, err = s.AnalyzeBody(context.Background(), g, k); err != nil {
						t.Error(err)
						return
					}
				}
				if !bytes.Equal(res.Body, want[res.Fingerprint]) {
					t.Errorf("worker %d request %d: wrong body for %s", w, i, res.Fingerprint)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Requests != 240 || st.BodyMemoHits == 0 || st.Evictions == 0 {
		t.Fatalf("stats = %+v, want 240 requests with memo hits and evictions", st)
	}
}
