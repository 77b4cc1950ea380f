package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	hetrta "repro"
	"repro/internal/keyhash"
	"repro/internal/store"
)

// storedService builds a service with a disk store attached at path
// (created when absent), mimicking the daemon's boot sequence.
func storedService(t *testing.T, path string, opts Options) *Service {
	t.Helper()
	svc := admitService(t, opts)
	st, err := store.Open(store.Options{Path: path, Generation: svc.Generation()})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	if err := svc.AttachStore(st); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}
	return svc
}

// TestStoreWarmStartByteIdentical: a restarted service answers previously
// served analyses and admissions from the warm-started cache with
// byte-identical bodies and ZERO analyzer executions.
func TestStoreWarmStartByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	ctx := context.Background()

	svc1 := storedService(t, path, Options{})
	ra1, err := svc1.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	rm1, err := svc1.Admit(ctx, admitTaskset(false))
	if err != nil {
		t.Fatal(err)
	}
	svc1.store.Flush()

	// "Restart": a fresh service over the same log.
	svc2 := storedService(t, path, Options{})
	st := svc2.Stats()
	if st.Store == nil || st.Store.WarmLoaded == 0 {
		t.Fatalf("warm start loaded nothing: %+v", st.Store)
	}
	ra2, err := svc2.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !ra2.Hit {
		t.Fatal("warm-started analysis was not a cache hit")
	}
	if !bytes.Equal(ra1.Body, ra2.Body) {
		t.Fatalf("warm-started analysis body differs:\n%s\n%s", ra1.Body, ra2.Body)
	}
	rm2, err := svc2.Admit(ctx, admitTaskset(true)) // permuted isomorph
	if err != nil {
		t.Fatal(err)
	}
	if !rm2.Hit {
		t.Fatal("warm-started admission was not a cache hit")
	}
	if !bytes.Equal(rm1.Body, rm2.Body) {
		t.Fatalf("warm-started admission body differs:\n%s\n%s", rm1.Body, rm2.Body)
	}
	if st := svc2.Stats(); st.Executions != 0 {
		t.Fatalf("warm-started service executed %d analyses, want 0", st.Executions)
	}
}

// TestStoreSecondTierRevivesEvicted: an entry evicted from the LRU is
// promoted back from disk on the next request instead of recomputed.
func TestStoreSecondTierRevivesEvicted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	ctx := context.Background()
	// One entry per shard: every insert in a shard evicts its previous
	// occupant.
	svc := storedService(t, path, Options{CacheEntries: 1, Shards: 1})

	r1, err := svc.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	svc.store.Flush()
	if _, err := svc.Analyze(ctx, chainGraph(t, 99)); err != nil { // evicts the first
		t.Fatal(err)
	}
	if _, ok := svc.cache.get(svc.keyOf(r1.Fingerprint)); ok {
		t.Fatal("first entry still resident; eviction setup is broken")
	}
	execsBefore := svc.Stats().Executions
	r2, err := svc.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit {
		t.Fatal("store-tier revival was not reported as a hit")
	}
	if !bytes.Equal(r1.Body, r2.Body) {
		t.Fatal("revived body differs from original")
	}
	st := svc.Stats()
	if st.Executions != execsBefore {
		t.Fatalf("revival recomputed (%d -> %d executions)", execsBefore, st.Executions)
	}
	if st.Store.WarmHits == 0 {
		t.Fatal("store WarmHits not counted")
	}
}

// TestStoreUndecodableReportMisses: a CRC-valid report record that does
// not decode is a miss on the store tier too, not only at warm start.
// lookup counts one decode error and the request is recomputed, to the
// bytes a service without the record serves (X-Cache miss, one
// execution). The second body scans canonically up to its type error, so
// the encoding/json fallback is what rejects it.
func TestStoreUndecodableReportMisses(t *testing.T) {
	ctx := context.Background()
	want, err := admitService(t, Options{}).Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{`{"bounds":`, `{"graph":{"nodes":"x"}}`} {
		t.Run(bad, func(t *testing.T) {
			svc := storedService(t, filepath.Join(t.TempDir(), "cache.log"), Options{})
			svc.store.Append(recReport, svc.keyOf(want.Fingerprint), []byte(bad))
			svc.store.Flush()
			if _, ok := svc.cache.get(svc.keyOf(want.Fingerprint)); ok {
				t.Fatal("record resident before the request; the store tier is not exercised")
			}

			res, err := svc.Analyze(ctx, chainGraph(t, 8))
			if err != nil {
				t.Fatal(err)
			}
			if res.Hit || res.Shared {
				t.Fatalf("undecodable record served as a hit (hit %v, shared %v)", res.Hit, res.Shared)
			}
			if !bytes.Equal(res.Body, want.Body) {
				t.Fatalf("recomputed body differs:\n%s\nwant:\n%s", res.Body, want.Body)
			}
			st := svc.Stats()
			if st.Store.DecodeErrors != 1 || st.Executions != 1 || st.Store.WarmHits != 0 {
				t.Fatalf("decode errors %d, executions %d, warm hits %d; want 1, 1, 0",
					st.Store.DecodeErrors, st.Executions, st.Store.WarmHits)
			}
		})
	}
}

// TestStoreUndecodableAdmitMisses: a CRC-valid admit record that does not
// decode into a coherent anchor is a cold base on the store tier. On the
// lookup path and at warm start it counts one decode error and takes no
// cache slot, and AdmitDelta against it returns ErrUnknownBase. The cases
// are a truncated record, a body that is JSON but not an AdmitReport, and
// digests and tasks of different lengths.
func TestStoreUndecodableAdmitMisses(t *testing.T) {
	ctx := context.Background()
	base := hetrta.Taskset{Tasks: []hetrta.SporadicTask{
		deltaChain(2, 8, 60, 50),
		deltaChain(1, 4, 40, 40),
	}}
	rb, err := admitService(t, Options{}).Admit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	record := func(body string, digests int) []byte {
		pa := persistedAdmit{Body: []byte(body)}
		for i, tk := range base.Tasks {
			pa.Tasks = append(pa.Tasks, persistedTask{Graph: tk.G, Period: tk.Period, Deadline: tk.Deadline})
			if i < digests {
				pa.Digests = append(pa.Digests, tk.Digest().String())
			}
		}
		val, err := json.Marshal(pa)
		if err != nil {
			t.Fatal(err)
		}
		return val
	}
	good := record(string(rb.Body), len(base.Tasks))
	if _, err := admitService(t, Options{}).decodeRecord(recAdmit, good); err != nil {
		t.Fatalf("reference record does not decode: %v", err)
	}
	cases := []struct {
		name string
		val  []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"not-a-report", record(`{"admitted":"x"}`, len(base.Tasks))},
		{"short-digests", record(string(rb.Body), len(base.Tasks)-1)},
		{"no-digests", record(string(rb.Body), 0)},
	}
	delta := hetrta.TasksetDelta{Add: []hetrta.SporadicTask{deltaChain(3, 5, 80, 70)}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.log")
			svc := storedService(t, path, Options{})
			svc.store.Append(recAdmit, svc.admitKeyOf(rb.Fingerprint), tc.val)
			svc.store.Flush()
			if _, err := svc.AdmitDelta(ctx, rb.Fingerprint, delta); !errors.Is(err, ErrUnknownBase) {
				t.Fatalf("lookup path: AdmitDelta error = %v, want ErrUnknownBase", err)
			}
			if st := svc.Stats(); st.Store.DecodeErrors != 1 || st.Store.WarmHits != 0 || st.Entries != 0 || st.Executions != 0 {
				t.Fatalf("lookup path: decode errors %d, warm hits %d, entries %d, executions %d; want 1, 0, 0, 0",
					st.Store.DecodeErrors, st.Store.WarmHits, st.Entries, st.Executions)
			}

			restarted := storedService(t, path, Options{})
			if st := restarted.Stats(); st.Store.DecodeErrors != 1 || st.Store.WarmLoaded != 0 || st.Entries != 0 {
				t.Fatalf("warm start: decode errors %d, warm loaded %d, entries %d; want 1, 0, 0",
					st.Store.DecodeErrors, st.Store.WarmLoaded, st.Entries)
			}
			if _, err := restarted.AdmitDelta(ctx, rb.Fingerprint, delta); !errors.Is(err, ErrUnknownBase) {
				t.Fatalf("warm start: AdmitDelta error = %v, want ErrUnknownBase", err)
			}
		})
	}
}

// TestStoreDeltaBaseRevival: the churn-serving acceptance criterion — a
// base admitted before a restart anchors AdmitDelta afterwards (no 404),
// and the delta result is byte-identical to a cold full admit.
func TestStoreDeltaBaseRevival(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	ctx := context.Background()

	base := hetrta.Taskset{Tasks: []hetrta.SporadicTask{
		deltaChain(2, 8, 60, 50),
		deltaChain(1, 4, 40, 40),
	}}
	add := deltaChain(3, 5, 80, 70)

	svc1 := storedService(t, path, Options{})
	rb, err := svc1.Admit(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	svc1.store.Flush()

	svc2 := storedService(t, path, Options{})
	// The warm start fills the revived base's handle slots from the
	// revived eval entries.
	baseEnt, ok := svc2.cache.get(svc2.admitKeyOf(rb.Fingerprint))
	if !ok || baseEnt.anchor == nil {
		t.Fatal("admitted base not warm-started with an anchor")
	}
	a := baseEnt.anchor
	if len(a.digests) != len(base.Tasks) || len(a.handles) != len(base.Tasks) {
		t.Fatalf("revived base has %d digests and %d handle slots, want %d each", len(a.digests), len(a.handles), len(base.Tasks))
	}
	for i, dg := range a.digests {
		ev, ok := svc2.cache.get(svc2.evalKeyOf(dg))
		if !ok || a.handles[i] == nil || a.handles[i] != ev.eval {
			t.Fatalf("handle slot %d (task %s) is not the resident eval handle", i, dg)
		}
	}
	before := svc2.Stats()
	rd, err := svc2.AdmitDelta(ctx, rb.Fingerprint, hetrta.TasksetDelta{Add: []hetrta.SporadicTask{add}})
	if err != nil {
		t.Fatalf("AdmitDelta after restart: %v", err)
	}
	after := svc2.Stats()
	if hits, misses := after.EvalHits-before.EvalHits, after.EvalMisses-before.EvalMisses; hits != 2 || misses != 1 {
		t.Fatalf("post-restart delta eval hits/misses = %d/%d, want 2/1 (surviving tasks hit, added task misses)", hits, misses)
	}
	// Reference: a fresh storeless service admitting the full resulting
	// set must produce the same bytes.
	ref := admitService(t, Options{})
	full := hetrta.Taskset{Tasks: append(append([]hetrta.SporadicTask(nil), base.Tasks...), add)}
	rf, err := ref.Admit(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd.Body, rf.Body) {
		t.Fatalf("post-restart delta body differs from full admit:\n%s\n%s", rd.Body, rf.Body)
	}
}

// lruKeys lists each shard's keys, most recently used first.
func lruKeys(c *cache) [][]string {
	out := make([][]string, len(c.shards))
	for i, sh := range c.shards {
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			out[i] = append(out[i], el.Value.(*lruItem).key)
		}
	}
	return out
}

// peek returns key's entry without touching its recency.
func peek(c *cache, key string) (*entry, bool) {
	el, ok := c.shardFor(key).items[keyhash.Of(key)]
	if !ok || el.Value.(*lruItem).key != key {
		return nil, false
	}
	return el.Value.(*lruItem).val, true
}

// TestStoreWarmStartMatchesFullLoad: the bounded newest-first warm start
// leaves every shard holding the same keys, in the same recency order, as
// a forward load of the whole log; an undecodable record takes no slot,
// so the next-older record of its shard gets it.
func TestStoreWarmStartMatchesFullLoad(t *testing.T) {
	const n = 1000
	opts := Options{CacheEntries: 64, Shards: 4}
	path := filepath.Join(t.TempDir(), "cache.log")
	src := admitService(t, opts)
	res, err := src.Analyze(context.Background(), chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Path: path, Generation: src.Generation()})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n)
	vals := make([][]byte, n)
	const bad = n - 3 // among the newest: valid CRC, undecodable JSON
	for i := range keys {
		keys[i] = fmt.Sprintf("report-%04d", i)
		vals[i] = res.Body
		if i == bad {
			vals[i] = []byte(`{"bounds":`)
		}
		st.Append(recReport, keys[i], vals[i])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := storedService(t, path, opts)

	ref := newCache(opts.CacheEntries, opts.Shards)
	for i, k := range keys {
		if ent, err := src.decodeRecord(recReport, vals[i]); err == nil {
			ref.add(k, ent)
		}
	}
	got := lruKeys(svc.cache)
	if want := lruKeys(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm-started shards differ from a full forward load:\ngot  %v\nwant %v", got, want)
	}
	stats := svc.Stats()
	if stats.Store.WarmLoaded != uint64(svc.cache.len()) || svc.cache.len() != opts.CacheEntries {
		t.Fatalf("warmLoaded %d, resident %d, want both %d", stats.Store.WarmLoaded, svc.cache.len(), opts.CacheEntries)
	}
	if stats.Store.DecodeErrors != 1 {
		t.Fatalf("storeDecodeErrors = %d, want 1", stats.Store.DecodeErrors)
	}

	// The bad record's shard holds its newest capacity+1 records minus
	// the bad one: the oldest resident is the next-older record.
	sh := svc.cache.shardIndex(keys[bad])
	capacity := svc.cache.shards[sh].capacity
	var newest []string
	for i := n - 1; i >= 0 && len(newest) <= capacity; i-- {
		if svc.cache.shardIndex(keys[i]) == sh {
			newest = append(newest, keys[i])
		}
	}
	resident := got[sh]
	if slices.Contains(resident, keys[bad]) || resident[len(resident)-1] != newest[capacity] {
		t.Fatalf("shard %d holds %v; want %s's slot taken by %s", sh, resident, keys[bad], newest[capacity])
	}
}

// TestStoreWarmStartMixedKinds: on a log of eval, admit and report
// records, the two-pass warm start (non-eval records claim slots first,
// eval records fill the rest) matches a forward load that inserts every
// eval record first and the others after, each in log order; resident
// admit entries anchor exactly the resident eval handles of their tasks.
func TestStoreWarmStartMixedKinds(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "cache.log")
	src := storedService(t, path, Options{})
	for i := int64(0); i < 6; i++ {
		if _, err := src.Admit(ctx, hetrta.Taskset{Tasks: []hetrta.SporadicTask{
			deltaChain(i+1, 4, 40, 40),
			deltaChain(2, i+5, 60, 50),
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Analyze(ctx, chainGraph(t, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	src.store.Flush()
	logBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	opts := Options{CacheEntries: 20, Shards: 4}
	svc := storedService(t, path, opts)

	// Reference: the latest record of every key, evals first, then the
	// rest, each in log order.
	var recs []store.Record
	last := map[string]int{}
	if _, err := store.ScanStream(bytes.NewReader(logBytes), svc.Generation(), func(rec store.Record) error {
		last[rec.Key] = len(recs)
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ref := newCache(opts.CacheEntries, opts.Shards)
	evalRecs := 0
	for _, evals := range []bool{true, false} {
		for i, rec := range recs {
			if last[rec.Key] != i || (rec.Kind == recEval) != evals {
				continue
			}
			if evals {
				evalRecs++
			}
			ent, err := svc.decodeRecord(rec.Kind, rec.Value)
			if err != nil {
				t.Fatal(err)
			}
			ref.add(rec.Key, ent)
		}
	}
	got := lruKeys(svc.cache)
	if want := lruKeys(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm-started shards differ from a full forward load:\ngot  %q\nwant %q", got, want)
	}

	var evalsResident, admits int
	for _, shard := range got {
		for _, key := range shard {
			ent, _ := peek(svc.cache, key)
			if ent.eval != nil {
				evalsResident++
			}
			if ent.anchor == nil {
				continue
			}
			admits++
			for i, dg := range ent.anchor.digests {
				ev, ok := peek(svc.cache, svc.evalKeyOf(dg))
				if h := ent.anchor.handles[i]; (ok && h != ev.eval) || (!ok && h != nil) {
					t.Fatalf("admit %s: anchor for task %s does not match the resident eval entry", key, dg)
				}
			}
		}
	}
	if admits == 0 || evalsResident == 0 || evalsResident == evalRecs {
		t.Fatalf("log shape does not exercise both passes: %d admits and %d of %d evals resident", admits, evalsResident, evalRecs)
	}
}

// TestStoreGenerationMismatchRejected: AttachStore refuses a store opened
// under a different generation — stale records must never warm-load.
func TestStoreGenerationMismatchRejected(t *testing.T) {
	svc := admitService(t, Options{})
	st, err := store.Open(store.Options{
		Path:       filepath.Join(t.TempDir(), "cache.log"),
		Generation: "some-other-config",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := svc.AttachStore(st); err == nil {
		t.Fatal("AttachStore accepted a mismatched generation")
	}
}

// TestWarmupStream: a peer replica's log streamed into Warmup loads its
// entries (served as hits afterwards), and a mismatched generation is
// rejected before loading anything.
func TestWarmupStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	ctx := context.Background()

	svc1 := storedService(t, path, Options{})
	r1, err := svc1.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := svc1.Admit(ctx, admitTaskset(false))
	if err != nil {
		t.Fatal(err)
	}
	svc1.store.Flush()
	logBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A storeless peer warms from the stream.
	svc2 := admitService(t, Options{})
	ws, err := svc2.Warmup(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatalf("Warmup: %v", err)
	}
	if ws.Loaded == 0 || ws.Skipped != 0 || ws.Truncated {
		t.Fatalf("warmup summary = %+v", ws)
	}
	r2, err := svc2.Analyze(ctx, chainGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Hit || !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("warmed peer did not serve identical hit (hit=%v)", r2.Hit)
	}
	// Delta admission anchors on the warmed base too.
	if _, err := svc2.AdmitDelta(ctx, rb.Fingerprint, hetrta.TasksetDelta{
		Add: []hetrta.SporadicTask{deltaChain(3, 5, 80, 70)},
	}); err != nil {
		t.Fatalf("AdmitDelta on warmed base: %v", err)
	}
	if st := svc2.Stats(); st.Executions != 1 { // only the delta variant ran
		t.Fatalf("warmed peer executions = %d, want 1", st.Executions)
	}

	// A peer under a different configuration must reject the stream.
	an, err := hetrta.NewAnalyzer() // default platform differs from admitService's
	if err != nil {
		t.Fatal(err)
	}
	svc3, err := New(an, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc3.Warmup(bytes.NewReader(logBytes)); !errors.Is(err, store.ErrGenerationMismatch) {
		t.Fatalf("mismatched warmup error = %v, want ErrGenerationMismatch", err)
	}
	if st := svc3.Stats(); st.Entries != 0 {
		t.Fatal("mismatched warmup loaded entries")
	}
}

// TestStoreSkipsDegradedEntries: the "deg|" namespace is never persisted —
// a degraded fallback served before a restart must not outlive it.
func TestStoreSkipsDegradedEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.log")
	svc := storedService(t, path, Options{})
	// Simulate what a degraded insert would look like via cacheAdd with a
	// deg|-keyed entry: persist must drop it.
	svc.cacheAdd("deg|feedbeef|"+svc.sig, &entry{body: []byte(`{"degraded":true}`), degraded: hetrta.DegradedExactBudget})
	svc.store.Flush()
	if st := svc.store.Stats(); st.Appends != 0 {
		t.Fatalf("degraded entry persisted: %+v", st)
	}
}
