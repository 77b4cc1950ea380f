package service

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	hetrta "repro"
	"repro/internal/keyhash"
)

// chainGraph builds load -> kernel(offload, cOff) -> post with the given
// host WCETs, optionally relabeled so nodes appear in a different ID order.
func chainGraph(t *testing.T, cOff int64) *hetrta.Graph {
	t.Helper()
	g := hetrta.NewGraph()
	load := g.AddNode("load", 2, hetrta.Host)
	kern := g.AddNode("kernel", cOff, hetrta.Offload)
	post := g.AddNode("post", 3, hetrta.Host)
	g.MustAddEdge(load, kern)
	g.MustAddEdge(kern, post)
	return g
}

// relabeledChain is chainGraph with the same nodes added in reverse ID
// order — an isomorphic graph under a different labeling.
func relabeledChain(t *testing.T, cOff int64) *hetrta.Graph {
	t.Helper()
	g := hetrta.NewGraph()
	post := g.AddNode("post", 3, hetrta.Host)
	kern := g.AddNode("kernel", cOff, hetrta.Offload)
	load := g.AddNode("load", 2, hetrta.Host)
	g.MustAddEdge(load, kern)
	g.MustAddEdge(kern, post)
	return g
}

func newTestService(t *testing.T, opts Options, anOpts ...hetrta.Option) *Service {
	t.Helper()
	an, err := hetrta.NewAnalyzer(anOpts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(an, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAnalyzeCacheHitByteIdentical(t *testing.T) {
	s := newTestService(t, Options{})
	ctx := context.Background()

	r1, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Hit {
		t.Fatal("first request reported a cache hit")
	}
	r2, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit {
		t.Fatal("second identical request missed the cache")
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("cached body differs:\n%s\n%s", r1.Body, r2.Body)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Executions != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 execution", st)
	}
}

func TestAnalyzeRelabeledGraphHitsSameEntry(t *testing.T) {
	s := newTestService(t, Options{})
	ctx := context.Background()

	r1, err := s.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Analyze(ctx, relabeledChain(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("isomorphic graphs got different fingerprints: %s vs %s", r1.Fingerprint, r2.Fingerprint)
	}
	if !r2.Hit {
		t.Fatal("relabeled graph missed the cache")
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatal("relabeled graph served different bytes")
	}
}

func TestAnalyzeDistinctGraphsDistinctEntries(t *testing.T) {
	s := newTestService(t, Options{})
	ctx := context.Background()
	if _, err := s.Analyze(ctx, chainGraph(t, 8)); err != nil {
		t.Fatal(err)
	}
	r, err := s.Analyze(ctx, chainGraph(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Fatal("different graph hit the cache")
	}
	if st := s.Stats(); st.Entries != 2 || st.Executions != 2 {
		t.Fatalf("stats = %+v, want 2 entries / 2 executions", st)
	}
}

func TestAnalyzeErrorNotCached(t *testing.T) {
	s := newTestService(t, Options{})
	ctx := context.Background()
	cyclic := hetrta.NewGraph()
	a := cyclic.AddNode("a", 1, hetrta.Host)
	b := cyclic.AddNode("b", 2, hetrta.Host)
	cyclic.MustAddEdge(a, b)
	cyclic.MustAddEdge(b, a)

	if _, err := s.Analyze(ctx, cyclic); err == nil {
		t.Fatal("cyclic graph analyzed without error")
	}
	st := s.Stats()
	if st.Entries != 0 {
		t.Fatalf("failed analysis was cached: %+v", st)
	}
	if st.Failures != 1 {
		t.Fatalf("failures = %d, want 1", st.Failures)
	}
	// The failure must be recomputed, not served from anywhere.
	if _, err := s.Analyze(ctx, cyclic); err == nil {
		t.Fatal("second cyclic request did not fail")
	}
	if st := s.Stats(); st.Executions != 2 {
		t.Fatalf("executions = %d, want 2 (errors are not cached)", st.Executions)
	}
}

func TestAnalyzeNilGraph(t *testing.T) {
	s := newTestService(t, Options{})
	if _, err := s.Analyze(context.Background(), nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestLRUEviction(t *testing.T) {
	s := newTestService(t, Options{CacheEntries: 2, Shards: 1})
	ctx := context.Background()
	g1, g2, g3 := chainGraph(t, 5), chainGraph(t, 6), chainGraph(t, 7)
	for _, g := range []*hetrta.Graph{g1, g2, g3} {
		if _, err := s.Analyze(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// g1 was least recently used and must have been evicted.
	r, err := s.Analyze(ctx, chainGraph(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Hit {
		t.Fatal("evicted entry still served from cache")
	}
	// g3 must still be resident.
	r, err = s.Analyze(ctx, chainGraph(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Hit {
		t.Fatal("resident entry missed")
	}
}

// TestCacheSlotCollision: a key's hash is its slot, so two keys that
// share a hash share one slot. A lookup compares the key the slot holds,
// so the other key misses instead of getting its entry; an insert takes
// the slot over, and removing the other key leaves it alone. The
// collision is staged by filing an element under another key's hash.
func TestCacheSlotCollision(t *testing.T) {
	c := newCache(4, 1)
	sh := c.shards[0]
	a, b := "key-a", "key-b"
	ea, eb := &entry{body: []byte("a")}, &entry{body: []byte("b")}
	// rekey files from's element under to's slot, as if both hashed alike.
	rekey := func(from, to string) {
		el := sh.items[keyhash.Of(from)]
		delete(sh.items, keyhash.Of(from))
		sh.items[keyhash.Of(to)] = el
	}

	c.add(a, ea)
	rekey(a, b)
	if ent, ok := c.get(b); ok {
		t.Fatalf("get(b) returned a's entry %q from the shared slot", ent.body)
	}
	c.add(b, eb)
	if ent, ok := c.get(b); !ok || ent != eb || c.len() != 1 {
		t.Fatalf("add(b) did not take the slot over: %v, %d entries", ok, c.len())
	}
	rekey(b, a)
	c.remove(a)
	if ent, ok := peek(c, b); c.len() != 1 || (ok && ent != eb) {
		t.Fatal("remove(a) dropped b from the shared slot")
	}
}

// TestGetFPMatchesGet: the hit path's lookup by key parts finds exactly
// the entry of the built key, analysis and admission alike, and a key
// differing in one hex digit, in the prefix or in the signature misses,
// also when it is filed in the entry's slot.
func TestGetFPMatchesGet(t *testing.T) {
	s := newTestService(t, Options{Shards: 1})
	fp := chainGraph(t, 8).Fingerprint()
	ent := &entry{body: []byte("x")}
	s.cache.add(s.keyOf(fp), ent)
	if got, ok := s.cache.getFP("", fp[:], s.sig); !ok || got != ent {
		t.Fatalf("getFP missed the entry of keyOf(fp): %v", ok)
	}
	other := fp
	other[31] ^= 0x01
	if _, ok := s.cache.getFP("", other[:], s.sig); ok {
		t.Fatal("getFP hit for a fingerprint one digit off")
	}
	sig := []byte(s.sig)
	sig[len(sig)-1] ^= 0x01
	if _, ok := s.cache.getFP("", fp[:], string(sig)); ok {
		t.Fatal("getFP hit under another signature of the same length")
	}
	// The same must hold when the other key's hash lands on the entry's
	// slot: getFP compares the key, not only the hash.
	sh := s.cache.shardFor(s.keyOf(fp))
	sh.items[keyhash.Of(s.keyOf(other))] = sh.items[keyhash.Of(s.keyOf(fp))]
	if _, ok := s.cache.getFP("", other[:], s.sig); ok {
		t.Fatal("getFP hit for another fingerprint filed in the entry's slot")
	}

	tfp := hetrta.Taskset{Tasks: []hetrta.SporadicTask{deltaChain(2, 8, 60, 50)}}.Fingerprint()
	admitEnt := &entry{body: []byte("y")}
	s.cache.add(s.admitKeyOf(tfp), admitEnt)
	if got, ok := s.cache.getFP(admitPrefix, tfp[:], s.tsig); !ok || got != admitEnt {
		t.Fatalf("getFP missed the entry of admitKeyOf(fp): %v", ok)
	}
	if _, ok := s.cache.getFP("admit/", tfp[:], s.tsig); ok {
		t.Fatal("getFP hit under another prefix of the same length")
	}
	if _, ok := s.cache.getFP("", tfp[:], s.tsig); ok {
		t.Fatal("getFP hit without the admission prefix")
	}
}

func TestAnalyzeBatchCoalescesDuplicates(t *testing.T) {
	s := newTestService(t, Options{})
	gs := []*hetrta.Graph{
		chainGraph(t, 8),
		chainGraph(t, 9),
		relabeledChain(t, 8), // isomorphic to gs[0]
		chainGraph(t, 8),     // identical to gs[0]
	}
	res, err := s.AnalyzeBatch(context.Background(), gs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil || r.Err != nil {
			t.Fatalf("slot %d failed: %+v", i, r)
		}
	}
	if !bytes.Equal(res[0].Body, res[2].Body) || !bytes.Equal(res[0].Body, res[3].Body) {
		t.Fatal("coalesced duplicates served different bytes")
	}
	st := s.Stats()
	if st.Executions != 2 {
		t.Fatalf("executions = %d, want 2 (duplicates coalesced)", st.Executions)
	}
	if st.Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", st.Coalesced)
	}
	if st.Requests != 4 {
		t.Fatalf("requests = %d, want 4", st.Requests)
	}
}

func TestAnalyzeBatchPerItemErrors(t *testing.T) {
	s := newTestService(t, Options{})
	cyclic := hetrta.NewGraph()
	a := cyclic.AddNode("a", 1, hetrta.Host)
	b := cyclic.AddNode("b", 2, hetrta.Host)
	cyclic.MustAddEdge(a, b)
	cyclic.MustAddEdge(b, a)

	gs := []*hetrta.Graph{chainGraph(t, 8), nil, cyclic}
	res, err := s.AnalyzeBatch(context.Background(), gs)
	if err != nil {
		t.Fatalf("per-item failures must not fail the batch: %v", err)
	}
	if res[0].Err != nil || res[0].Report == nil {
		t.Fatalf("healthy slot failed: %+v", res[0])
	}
	if res[1].Err == nil {
		t.Fatal("nil slot did not fail")
	}
	if !strings.Contains(res[1].Err.Error(), "nil graph") {
		t.Fatalf("nil slot error = %v, want the analyzer's nil-graph error", res[1].Err)
	}
	if res[2].Err == nil {
		t.Fatal("cyclic slot did not fail")
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want only the healthy report cached", st.Entries)
	}
}

// TestBatchNilSlotMatchesAnalyzer: a batch's nil slot fails with the
// analyzer's own nil-graph text, as an analysis error (HTTP 422).
func TestBatchNilSlotMatchesAnalyzer(t *testing.T) {
	s := newTestService(t, Options{})
	_, want := s.an.Analyze(context.Background(), nil)
	res, err := s.AnalyzeBatch(context.Background(), []*hetrta.Graph{nil})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].Err; got == nil || got.Error() != want.Error() || !errors.Is(got, ErrAnalysis) {
		t.Fatalf("nil slot err = %v, want ErrAnalysis with text %q", got, want)
	}
}

func TestAnalyzeBatchServesFromCache(t *testing.T) {
	s := newTestService(t, Options{})
	ctx := context.Background()
	if _, err := s.Analyze(ctx, chainGraph(t, 8)); err != nil {
		t.Fatal(err)
	}
	res, err := s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 8), chainGraph(t, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Hit {
		t.Fatal("batch slot 0 missed a warm cache")
	}
	if res[1].Hit {
		t.Fatal("batch slot 1 hit a cold key")
	}
	if st := s.Stats(); st.Executions != 2 {
		t.Fatalf("executions = %d, want 2", st.Executions)
	}
}

// TestBatchDuplicateOfHitCountsHit: a duplicate of a slot served from
// the cache is itself a hit, not a coalesced join, and shares no flight.
func TestBatchDuplicateOfHitCountsHit(t *testing.T) {
	s := newTestService(t, Options{})
	ctx := context.Background()
	if _, err := s.Analyze(ctx, chainGraph(t, 8)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	res, err := s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 8), relabeledChain(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !r.Hit || r.Shared {
			t.Fatalf("slot %d = %+v, want an unshared hit", i, r)
		}
	}
	if !bytes.Equal(res[0].Body, res[1].Body) {
		t.Fatal("duplicate served different bytes")
	}
	st := s.Stats()
	if d := st.Hits - before.Hits; d != 2 {
		t.Fatalf("hits grew by %d, want 2", d)
	}
	if st.Coalesced != before.Coalesced || st.Executions != before.Executions {
		t.Fatalf("coalesced %d -> %d, executions %d -> %d; want both unchanged",
			before.Coalesced, st.Coalesced, before.Executions, st.Executions)
	}
}

func TestBatchEmptyAndCancelled(t *testing.T) {
	s := newTestService(t, Options{})
	res, err := s.AnalyzeBatch(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty batch: res=%v err=%v", res, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = s.AnalyzeBatch(ctx, []*hetrta.Graph{chainGraph(t, 8)})
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if len(res) != 1 || res[0] == nil || res[0].Err == nil {
		t.Fatalf("cancelled batch slots not filled: %+v", res)
	}
}

func TestStatsShardOccupancy(t *testing.T) {
	s := newTestService(t, Options{CacheEntries: 64, Shards: 4})
	ctx := context.Background()
	for c := int64(1); c <= 8; c++ {
		if _, err := s.Analyze(ctx, chainGraph(t, c)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.ShardEntries) != 4 {
		t.Fatalf("shard count = %d, want 4", len(st.ShardEntries))
	}
	total := 0
	for _, n := range st.ShardEntries {
		total += n
	}
	if total != 8 || st.Entries != 8 {
		t.Fatalf("occupancy %v (entries %d), want 8 total", st.ShardEntries, st.Entries)
	}
	if st.Capacity != 64 {
		t.Fatalf("capacity = %d, want 64", st.Capacity)
	}
}

func TestShardsRoundedToPowerOfTwo(t *testing.T) {
	s := newTestService(t, Options{Shards: 3})
	if got := len(s.cache.shards); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
}

func TestSignatureDistinguishesConfigs(t *testing.T) {
	mk := func(opts ...hetrta.Option) string {
		an, err := hetrta.NewAnalyzer(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return an.Signature()
	}
	base := mk()
	distinct := []string{
		mk(hetrta.WithPlatform(hetrta.HeteroPlatform(8))),
		mk(hetrta.WithPlatform(hetrta.HomogeneousPlatform(4))),
		mk(hetrta.WithBounds(hetrta.RhomBound())),
		mk(hetrta.WithExactBudget(100)),
		mk(hetrta.WithPolicy(hetrta.BreadthFirst)),
		mk(hetrta.WithValidation(hetrta.PaperModel())),
	}
	seen := map[string]bool{base: true}
	for i, sig := range distinct {
		if seen[sig] {
			t.Fatalf("config %d has a colliding signature %q", i, sig)
		}
		seen[sig] = true
	}
	if mk() != base {
		t.Fatal("identical configs produced different signatures")
	}
}
