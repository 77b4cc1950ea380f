// Package service is the serving layer of the toolkit: a long-running
// wrapper around one hetrta.Analyzer that deduplicates work across
// requests. Four mechanisms compose:
//
//   - a canonical cache key: (Graph.Fingerprint, Analyzer.Signature), so
//     isomorphic graphs analyzed under the same configuration share one
//     result regardless of node labeling or which client sent them;
//   - a body memo from the SHA-256 of a request body to that key's
//     fingerprint, so a byte-identical repeat is served without decoding
//     or fingerprinting (LookupBody);
//   - a sharded LRU report cache holding each report's serialized JSON,
//     marshaled once — repeat responses are byte-identical by
//     construction — and not the report itself;
//   - single-flight execution: concurrent requests for the same key run the
//     Analyzer exactly once, with every other request waiting on the
//     leader's result. A batch is no second path: it coalesces duplicate
//     graphs, then serves each distinct graph as a single request on a
//     worker pool (internal/batch).
//
// Failures are never cached: a request that fails (including by its own
// context being cancelled) leaves the key absent, and waiters whose leader
// was cancelled retry with their own, still-live context.
//
// With Options.Resilience set, an overload-protection layer wraps
// execution (cache hits always bypass it):
//
//   - a cost-classed concurrency limiter with a bounded wait queue sits in
//     front of every analyzer run; when the queue is full the request is
//     shed with resilience.ErrOverloaded (HTTP 429 + Retry-After);
//   - a clock-free circuit breaker and a per-fingerprint hard-instance
//     cache route requests around the exact oracle when it is struggling:
//     routed requests get a valid bounds-only report marked Degraded;
//   - degraded results live under a separate "deg|" cache namespace — they
//     are never byte-identical to full reports, and a later successful
//     full analysis upgrades the fingerprint by dropping them.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	hetrta "repro"
	"repro/internal/batch"
	"repro/internal/dag"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/store"
)

// Limiter cost classes: one graph analysis — a single request, or one
// graph a batch runs — costs one unit, and a taskset admission — a
// whole-taskset analysis — costs more than one graph.
const (
	costAnalyze = 1
	costAdmit   = 2
)

// Defaults for Options zero values.
const (
	DefaultCacheEntries = 4096
	DefaultShards       = 16
)

// Options configure a Service.
type Options struct {
	// CacheEntries is the total report-cache capacity in entries (spread
	// over the shards, at least one per shard); 0 means
	// DefaultCacheEntries.
	CacheEntries int
	// Shards is the number of cache shards, rounded up to a power of two;
	// 0 means DefaultShards.
	Shards int
	// TasksetPolicies selects the admission policies behind Admit; nil
	// means hetrta.DefaultTasksetPolicies (federated + global).
	TasksetPolicies []hetrta.TasksetPolicy
	// Resilience enables the overload-protection layer (limiter, circuit
	// breaker, hard-instance cache, degraded routing). Nil disables it
	// entirely: the service behaves exactly as without this option.
	Resilience *ResilienceOptions
	// FaultInjector arms deterministic fault-injection seams (execution,
	// cache shards) for chaos tests. Nil — the only production value —
	// reduces every seam to a single pointer check.
	FaultInjector *faultinject.Injector
}

// ResilienceOptions configure the overload-protection layer; zero values
// select each primitive's defaults. The breaker, the hard-instance cache,
// and degraded routing only engage when the wrapped Analyzer has its exact
// stage enabled — they exist to protect that stage; the limiter always
// engages.
type ResilienceOptions struct {
	Limiter   resilience.LimiterOptions
	Breaker   resilience.BreakerOptions
	HardCache resilience.NegCacheOptions
}

// Service serves analysis requests against one immutable Analyzer,
// deduplicating identical work through the cache and single-flight. Safe
// for concurrent use.
type Service struct {
	an    *hetrta.Analyzer
	ta    *hetrta.TasksetAnalyzer
	sig   string
	tsig  string
	cache *cache
	// memo maps request-body hashes to graph fingerprints (LookupBody).
	memo *bodyMemo

	mu      sync.Mutex
	flights map[string]*flight

	requests   atomic.Uint64
	hits       atomic.Uint64
	misses     atomic.Uint64
	executions atomic.Uint64
	coalesced  atomic.Uint64
	failures   atomic.Uint64
	inFlight   atomic.Int64
	degraded   atomic.Uint64
	memoHits   atomic.Uint64

	// Per-task eval-cache counters, disjoint from the request-level
	// hit/miss economics above (an admission that reuses 32 evals is still
	// ONE request-level miss).
	evalHits     atomic.Uint64
	evalMisses   atomic.Uint64
	evalFailures atomic.Uint64

	// steps memoizes Global-policy fixpoint iterations across admissions
	// (see hetrta.GlobalStepCache); results are byte-identical either way.
	steps *hetrta.GlobalStepCache

	// store is the optional disk-backed second tier (see persist.go),
	// set once by AttachStore before serving. warmLoaded counts entries
	// decoded into the LRU at boot, warmHits store-tier promotions at
	// serve time, storeDecodeErrors records that failed service-level
	// decoding (skipped, never served).
	store             *store.Store
	warmLoaded        atomic.Uint64
	warmHits          atomic.Uint64
	storeDecodeErrors atomic.Uint64

	// Overload-protection layer; every field is nil-safe, so call sites
	// need no resilience-enabled checks. degBreaker/degHard are the
	// bounds-only analyzer variants degraded routing executes; non-nil only
	// when Resilience is configured AND the analyzer has an exact stage.
	limiter    *resilience.Limiter
	breaker    *resilience.Breaker
	hard       *resilience.NegCache
	degBreaker *hetrta.Analyzer
	degHard    *hetrta.Analyzer
	degBSig    string
	degHSig    string
	inj        *faultinject.Injector

	// batchWidth is AnalyzeBatch's worker-pool size: the analyzer's
	// parallelism, capped at the limiter's capacity so a lone batch never
	// queues behind, or sheds, its own items.
	batchWidth int

	// exec runs the analyzer for one cache miss; a test hook that defaults
	// to an.Analyze, letting tests count executions.
	exec func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error)
	// execAdmit runs the taskset analyzer for an admission miss; a test
	// hook that defaults to admitCached (AdmitWith over the shared per-task
	// eval cache and Global step memo — byte-identical to ta.Admit). src,
	// when non-nil, overrides the per-task eval source (the delta path's
	// entry-anchored handles).
	execAdmit func(ctx context.Context, ts hetrta.Taskset, ds []hetrta.TaskDigest, src hetrta.TaskEvalSource) (*hetrta.AdmitReport, error)
}

// flight is one in-progress execution; waiters block on done.
type flight struct {
	done chan struct{}
	ent  *entry
	err  error
}

// ErrAnalysis marks errors produced by the analysis itself on well-formed
// input (a Report that came back with Err set — e.g. a cyclic graph, an
// exact-stage infeasibility). The HTTP layer maps it to 422; errors
// WITHOUT this mark on the execution path are infrastructure faults
// (injected errors, marshal failures, missing reports) and map to 500.
var ErrAnalysis = errors.New("analysis failed")

// analysisError carries a per-report failure message verbatim while
// satisfying errors.Is(err, ErrAnalysis).
type analysisError struct{ msg string }

func (e analysisError) Error() string { return e.msg }

func (e analysisError) Is(target error) bool { return target == ErrAnalysis }

// errNilGraph fails a batch's nil slots with the analyzer's own text.
var errNilGraph = analysisError{"hetrta: Analyze(nil graph)"}

// Result is the outcome of one analyzed graph.
//
// Cached results are shared between all graphs with the same fingerprint,
// which is relabeling-invariant: a hit on an isomorphic graph returns the
// report computed for whichever request populated the entry. Every
// analytical quantity (bounds, makespans, volumes) is identical across
// relabelings, but node-ID-valued summary fields (offload.node,
// transforms[].offload/sync/gate, parNodes) echo the computing request's
// labeling, not necessarily the caller's.
type Result struct {
	// Report is the analysis outcome as the analyzer returned it, set only
	// when this call ran the analysis (Hit and Shared both false). It is
	// nil on memory hits, store hits, warm-started and Warmup entries,
	// shared waits and in-batch duplicates, because the cache keeps only
	// the body; a caller that needs the report of such a result decodes
	// Body with hetrta.DecodeReport.
	Report *hetrta.Report
	// Body is the report's canonical JSON, identical bytes for every
	// request served from the same cache entry, on every path.
	Body []byte
	// DegradedReason is the report's DegradedReason on every path: empty
	// for a full report, the cause for a degraded one.
	DegradedReason string
	// Hit says the result came from the cache; Shared says it came from
	// another request's in-flight execution.
	Hit    bool
	Shared bool
	// Fingerprint is the graph's canonical content hash.
	Fingerprint dag.Fingerprint
	// Err is the per-graph failure, if any (batch requests fail
	// item-by-item, mirroring Analyzer.AnalyzeBatch).
	Err error
}

// New builds a Service around an analyzer.
func New(an *hetrta.Analyzer, opts Options) (*Service, error) {
	if an == nil {
		return nil, errors.New("service: nil analyzer")
	}
	entries := opts.CacheEntries
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	for shards&(shards-1) != 0 {
		shards++
	}
	var taOpts []hetrta.TasksetOption
	if len(opts.TasksetPolicies) > 0 {
		taOpts = append(taOpts, hetrta.WithTasksetPolicies(opts.TasksetPolicies...))
	}
	ta, err := hetrta.NewTasksetAnalyzer(an, taOpts...)
	if err != nil {
		return nil, err
	}
	s := &Service{
		an:      an,
		ta:      ta,
		sig:     an.Signature(),
		tsig:    ta.Signature(),
		cache:   newCache(entries, shards),
		flights: make(map[string]*flight),
		steps:   hetrta.NewGlobalStepCache(entries),
	}
	s.memo = newBodyMemo(s.cache.capacity())
	s.exec = an.Analyze
	s.execAdmit = s.admitCached
	s.inj = opts.FaultInjector
	s.batchWidth = an.Parallelism()
	if s.batchWidth <= 0 {
		s.batchWidth = batch.DefaultWorkers()
	}
	if r := opts.Resilience; r != nil {
		s.limiter = resilience.NewLimiter(r.Limiter)
		s.batchWidth = min(s.batchWidth, int(s.limiter.Stats().Capacity))
		if an.ExactEnabled() {
			s.breaker = resilience.NewBreaker(r.Breaker)
			s.hard = resilience.NewNegCache(r.HardCache)
			s.degBreaker = an.BoundsOnly(hetrta.DegradedBreakerOpen)
			s.degHard = an.BoundsOnly(hetrta.DegradedHardInstance)
			s.degBSig = s.degBreaker.Signature()
			s.degHSig = s.degHard.Signature()
		}
	}
	return s, nil
}

// Signature returns the analyzer configuration signature baked into every
// cache key.
func (s *Service) Signature() string { return s.sig }

// Platform returns the wrapped analyzer's platform.
func (s *Service) Platform() hetrta.Platform { return s.an.Platform() }

// keyOf derives the cache key of g under this service's configuration.
// The hit path matches it in parts (cacheGetFP) and builds it only on a
// miss.
func (s *Service) keyOf(fp dag.Fingerprint) string {
	return fp.String() + "|" + s.sig
}

// degFullKey is where a FULL attempt's degraded outcome (exact budget or
// slice exhausted) is cached: the "deg|" namespace keeps it disjoint from
// full entries, so the full key only ever holds non-degraded reports and a
// later successful analysis upgrades the fingerprint cleanly.
func (s *Service) degFullKey(fp dag.Fingerprint) string {
	return "deg|" + fp.String() + "|" + s.sig
}

// degVariantKey is where a routed bounds-only result is cached. The
// variant signature embeds the forced reason, so breaker-routed and
// hard-instance-routed bodies never collide.
func degVariantKey(fp dag.Fingerprint, variantSig string) string {
	return "deg|" + fp.String() + "|" + variantSig
}

// cacheGet is cache.get behind the CacheGet fault seam: an injected error
// is a forced miss — the cache is advisory, so a faulty shard degrades to
// recomputation, never to a wrong answer. An injected panic propagates.
func (s *Service) cacheGet(key string) (*entry, bool) {
	if err := s.inj.Fire(faultinject.CacheGet); err != nil {
		return nil, false
	}
	return s.cache.get(key)
}

// cacheGetFP is cacheGet of the key prefix+hex(fp)+"|"+sig, without
// building it: keyOf(fp) is ("", fp, s.sig), admitKeyOf(fp) is
// (admitPrefix, fp, s.tsig).
func (s *Service) cacheGetFP(prefix string, fp []byte, sig string) (*entry, bool) {
	if err := s.inj.Fire(faultinject.CacheGet); err != nil {
		return nil, false
	}
	return s.cache.getFP(prefix, fp, sig)
}

// cacheAdd is cache.add behind the CacheAdd fault seam: an injected error
// drops the insert — correctness never depends on residency, and report
// marshaling is deterministic, so a recomputed entry is byte-identical.
// Successful inserts also feed the write-behind store tier (persist is a
// no-op without one).
func (s *Service) cacheAdd(key string, ent *entry) {
	if err := s.inj.Fire(faultinject.CacheAdd); err != nil {
		return
	}
	s.cache.add(key, ent)
	s.persist(key, ent)
}

// noteFullOutcome feeds the breaker and the hard-instance cache from a
// FULL analysis attempt's outcome. Degraded reports and exact-stage
// deadline expiries count as failures (the oracle is struggling on this
// instance); a clean full report closes the breaker and upgrades the
// fingerprint, dropping any stale degraded entries. Cancellations carry no
// signal — the client hung up, the oracle may be fine.
func (s *Service) noteFullOutcome(fp dag.Fingerprint, rep *hetrta.Report, err error) {
	if s.breaker == nil {
		return
	}
	switch {
	case err == nil && rep != nil && !rep.Degraded:
		s.breaker.Success()
		s.hard.Remove(fp.String())
		s.cache.remove(s.degFullKey(fp))
		s.cache.remove(degVariantKey(fp, s.degBSig))
		s.cache.remove(degVariantKey(fp, s.degHSig))
	case err == nil && rep != nil && rep.Degraded:
		s.breaker.Failure()
		s.hard.Add(fp.String())
	case errors.Is(err, context.DeadlineExceeded):
		s.breaker.Failure()
		s.hard.Add(fp.String())
	}
}

// Analyze serves one graph: from the cache, from another request's
// in-flight execution, or by running the Analyzer. The error is non-nil on
// analysis failure or context cancellation; failed analyses are not
// cached.
func (s *Service) Analyze(ctx context.Context, g *hetrta.Graph) (*Result, error) {
	if g == nil {
		return nil, errors.New("service: Analyze(nil graph)")
	}
	s.requests.Add(1)
	return s.analyze(ctx, g)
}

// BodyKey is what LookupBody learned of a request body: its SHA-256 and,
// when the body memo knew the body, the fingerprint of its graph.
type BodyKey struct {
	sum   [sha256.Size]byte
	fp    dag.Fingerprint
	known bool // fp is memoized, and its report was not in memory
}

// LookupBody serves a single-graph request body from the memory tier
// without decoding it. When the body memo knows the fingerprint of the
// graph body decodes to, and that report is resident, the result is a hit,
// counted as Analyze counts one. Otherwise the result is nil, and the
// caller decodes body and passes the graph and the returned key to
// AnalyzeBody.
func (s *Service) LookupBody(body []byte) (*Result, BodyKey) {
	k := BodyKey{sum: sha256.Sum256(body)}
	if k.fp, k.known = s.memo.get(k.sum); !k.known {
		return nil, k
	}
	s.memoHits.Add(1)
	ent, ok := s.cacheGetFP("", k.fp[:], s.sig)
	if !ok {
		return nil, k
	}
	s.requests.Add(1)
	s.hits.Add(1)
	return s.result(ent, nil, k.fp, true, false), k
}

// AnalyzeBody is Analyze of g, the graph decoded from the body LookupBody
// returned k for without a result. A body the memo did not know is
// memoized with g's fingerprint. A known one skips the fingerprint and the
// memory tier, which LookupBody has already tried.
func (s *Service) AnalyzeBody(ctx context.Context, g *hetrta.Graph, k BodyKey) (*Result, error) {
	if g == nil {
		return nil, errors.New("service: AnalyzeBody(nil graph)")
	}
	s.requests.Add(1)
	if k.known {
		return s.analyzeUncached(ctx, g, k.fp)
	}
	s.memo.put(k.sum, g.Fingerprint())
	return s.analyze(ctx, g)
}

// analyze is Analyze without the request accounting, which AnalyzeBatch
// does once per slot. A memory hit is found by the key's parts, so it
// builds no key string.
func (s *Service) analyze(ctx context.Context, g *hetrta.Graph) (*Result, error) {
	fp := g.Fingerprint()
	if ent, ok := s.cacheGetFP("", fp[:], s.sig); ok {
		s.hits.Add(1)
		return s.result(ent, nil, fp, true, false), nil
	}
	return s.analyzeUncached(ctx, g, fp)
}

// analyzeUncached is analyze after the memory tier missed fp, the
// fingerprint of g. With degraded routing enabled it decides the route
// here: a store hit always serves; otherwise an open breaker or a
// known-hard fingerprint diverts to the bounds-only path, and only
// surviving requests attempt the full pipeline.
func (s *Service) analyzeUncached(ctx context.Context, g *hetrta.Graph, fp dag.Fingerprint) (*Result, error) {
	key := s.keyOf(fp)
	if s.breaker != nil {
		if ent, ok := s.storeLookup(key); ok {
			s.hits.Add(1)
			return s.result(ent, nil, fp, true, false), nil
		}
		if !s.breaker.Allow() {
			return s.analyzeDegraded(ctx, g, fp, s.degBreaker, s.degBSig)
		}
		if s.hard.ShouldSkip(fp.String()) {
			return s.analyzeDegraded(ctx, g, fp, s.degHard, s.degHSig)
		}
	}
	var rep *hetrta.Report
	ent, hit, shared, err := s.serveWith(ctx, key, s.requestCounters(), s.storeLookup, func(ctx context.Context) (ent *entry, err error) {
		ent, rep, err = s.runFull(ctx, g, fp)
		return ent, err
	})
	if err != nil {
		return nil, err
	}
	return s.result(ent, rep, fp, hit, shared), nil
}

// result is the Result of an analysis served from ent, counting it when
// degraded. rep is the report when this call ran the analysis, else nil.
func (s *Service) result(ent *entry, rep *hetrta.Report, fp dag.Fingerprint, hit, shared bool) *Result {
	if ent.degraded != "" {
		s.degraded.Add(1)
	}
	return &Result{Report: rep, Body: ent.body, DegradedReason: ent.degraded, Hit: hit, Shared: shared, Fingerprint: fp}
}

// analyzeDegraded serves the bounds-only fallback for fp via the given
// analyzer variant. A prior full attempt's degraded result (cached under
// degFullKey, strictly richer — it kept the feasible exact bracket) wins
// over recomputing; otherwise the variant runs under the usual cache +
// single-flight discipline on its own "deg|" key. Degraded runs bypass the
// breaker accounting — they are the fallback, not evidence.
func (s *Service) analyzeDegraded(ctx context.Context, g *hetrta.Graph, fp dag.Fingerprint, variant *hetrta.Analyzer, vsig string) (*Result, error) {
	if ent, ok := s.cacheGet(s.degFullKey(fp)); ok {
		s.hits.Add(1)
		return s.result(ent, nil, fp, true, false), nil
	}
	var rep *hetrta.Report
	ent, hit, shared, err := s.serve(ctx, degVariantKey(fp, vsig), func(ctx context.Context) (ent *entry, err error) {
		ent, rep, err = s.runGraph(ctx, g, variant.Analyze)
		return ent, err
	})
	if err != nil {
		return nil, err
	}
	return s.result(ent, rep, fp, hit, shared), nil
}

// runFull is the full-pipeline flight body: it runs the analyzer, feeds
// the breaker and hard-instance cache from the outcome, and redirects a
// degraded result into the "deg|" cache namespace so the full key only
// ever holds non-degraded reports.
func (s *Service) runFull(ctx context.Context, g *hetrta.Graph, fp dag.Fingerprint) (*entry, *hetrta.Report, error) {
	ent, rep, err := s.runGraph(ctx, g, s.exec)
	s.noteFullOutcome(fp, rep, err)
	if err == nil && rep.Degraded {
		ent.cacheKey = s.degFullKey(fp)
	}
	return ent, rep, err
}

// serveCounters selects which hit/miss/failure counters a serve call
// feeds: the request-level counters for analyze/admit keys, the eval
// counters for per-task "eval|" keys — so the internal per-task lookups of
// a delta admission do not distort the request-level cache economics the
// /statsz tests assert on.
type serveCounters struct {
	hits, misses, failures *atomic.Uint64
}

// requestCounters are the request-level counters.
func (s *Service) requestCounters() serveCounters {
	return serveCounters{&s.hits, &s.misses, &s.failures}
}

// serve resolves one cache key through the cache and the single-flight
// table, running `run` as the flight leader on a miss. It is the shared
// core of the analysis and admission paths: cache hit → (hit=true); joined
// a foreign flight → (shared=true); led an execution → both false. A
// waiter whose leader died of its own cancelled context retries with its
// own, still-live context (re-checking the cache, possibly leading).
func (s *Service) serve(ctx context.Context, key string, run func(ctx context.Context) (*entry, error)) (ent *entry, hit, shared bool, err error) {
	return s.serveWith(ctx, key, s.requestCounters(), s.lookup, run)
}

// serveWith is serve with explicit counter routing and first-pass lookup:
// s.lookup, or s.storeLookup when the caller has just missed the memory
// tier itself. A retry looks up both tiers.
func (s *Service) serveWith(ctx context.Context, key string, ctrs serveCounters, lookup func(key string) (*entry, bool), run func(ctx context.Context) (*entry, error)) (ent *entry, hit, shared bool, err error) {
	for ; ; lookup = s.lookup {
		if ent, ok := lookup(key); ok {
			ctrs.hits.Add(1)
			return ent, true, false, nil
		}
		f, leader := s.leadOrJoin(key)
		if leader {
			ent, hit, err := s.lead(ctx, key, f, ctrs, run)
			return ent, hit, false, err
		}
		s.coalesced.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, false, ctx.Err()
		}
		if f.err == nil {
			return f.ent, false, true, nil
		}
		if isCancellation(f.err) && ctx.Err() == nil {
			continue
		}
		return nil, false, false, f.err
	}
}

// lead executes `run` for key as the flight leader, caches success, and
// publishes the outcome to waiters (also on panic, so a crashing execution
// cannot strand them). hit says the entry was found by the double-check
// instead, so `run` did not execute.
func (s *Service) lead(ctx context.Context, key string, f *flight, ctrs serveCounters, run func(ctx context.Context) (*entry, error)) (ent *entry, hit bool, err error) {
	published := false
	defer func() {
		if !published {
			s.publish(key, f, nil, fmt.Errorf("service: analysis aborted"))
		}
	}()
	// Double-check the cache after registering the flight: a previous
	// leader caches before deregistering, so this read cannot miss an
	// entry that was published before we became leader.
	if cached, ok := s.cacheGet(key); ok {
		ctrs.hits.Add(1)
		published = true
		s.publish(key, f, cached, nil)
		return cached, true, nil
	}
	ctrs.misses.Add(1)
	ent, err = run(ctx)
	if err != nil {
		ctrs.failures.Add(1)
		published = true
		s.publish(key, f, nil, err)
		return nil, false, err
	}
	// Must precede publish (see double-check above). A degraded outcome of
	// a full attempt redirects to the "deg|" namespace via ent.cacheKey.
	// published stays false until after the insert: a panicking cache
	// shard (fault injection) must not strand waiters.
	s.cacheAdd(ent.storeKey(key), ent)
	published = true
	s.publish(key, f, ent, nil)
	return ent, false, nil
}

// runGraph executes one analysis with exec (the configured analyzer or a
// bounds-only degraded variant) behind the limiter and the Exec fault
// seam, and returns the report with its cache entry. The limiter is only
// consulted here — on the execution path — so cache hits and
// single-flight joins are never shed. Cancellations pass through
// unchanged; any other analyzer error is the analysis rejecting the graph
// (ErrAnalysis).
func (s *Service) runGraph(ctx context.Context, g *hetrta.Graph, exec func(ctx context.Context, g *hetrta.Graph) (*hetrta.Report, error)) (*entry, *hetrta.Report, error) {
	if err := s.limiter.Acquire(ctx, costAnalyze); err != nil {
		return nil, nil, err
	}
	defer s.limiter.Release(costAnalyze)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1) // deferred: the gauge survives analyzer panics
	s.executions.Add(1)
	if err := s.inj.Fire(faultinject.Exec); err != nil {
		return nil, nil, err
	}
	rep, err := exec(ctx, g)
	if err != nil {
		if isCancellation(err) {
			return nil, nil, err
		}
		return nil, nil, analysisError{err.Error()}
	}
	ent, err := marshalEntry(rep)
	if err != nil {
		return nil, nil, err
	}
	return ent, rep, nil
}

// marshalEntry builds the cache entry for a fresh analysis report: its
// canonical JSON and its degraded reason, which is all any later request
// reads of it.
func marshalEntry(rep *hetrta.Report) (*entry, error) {
	body, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("service: marshaling report: %w", err)
	}
	return &entry{body: body, degraded: rep.DegradedReason}, nil
}

// AdmitResult is the outcome of one taskset admission.
//
// Cached results are shared between all tasksets with the same fingerprint,
// which is insensitive to task order and member-graph relabelings: the
// AdmitReport is computed over the taskset's canonical order, so a hit on a
// permuted-but-isomorphic taskset returns bytes identical to the original
// response.
type AdmitResult struct {
	// Report is the admission outcome, set only when this call ran the
	// analysis (Hit and Shared both false); it is nil on memory hits,
	// store hits and shared waits, because the cache keeps only the body.
	// Body is the report's canonical JSON, identical bytes for every
	// request served from the same cache entry, on every path.
	Report *hetrta.AdmitReport
	Body   []byte
	// Hit says the result came from the cache; Shared says it came from
	// another request's in-flight execution.
	Hit    bool
	Shared bool
	// Fingerprint is the taskset's canonical content hash.
	Fingerprint hetrta.TasksetFingerprint
}

// TasksetSignature returns the taskset-analyzer configuration signature
// baked into every admission cache key.
func (s *Service) TasksetSignature() string { return s.tsig }

// admitPrefix is the "admit|" namespace, which keeps admission entries
// disjoint from analysis entries in the shared sharded cache.
const admitPrefix = "admit|"

// admitKeyOf derives the admission cache key of ts under this service's
// configuration. The hit paths match it in parts (cacheGetFP) and build it
// only on a miss.
func (s *Service) admitKeyOf(fp hetrta.TasksetFingerprint) string {
	return admitPrefix + fp.String() + "|" + s.tsig
}

// ErrUnknownBase is returned by AdmitDelta when the base fingerprint is
// not resident in the admit cache (never admitted here, or evicted). The
// HTTP layer maps it to 404-with-reason; clients recover by re-submitting
// the full resulting taskset to Admit.
var ErrUnknownBase = errors.New("service: unknown base taskset")

// Admit serves one taskset admission: from the cache, from another
// request's in-flight execution, or by running the TasksetAnalyzer. The
// same single-flight and never-cache-failures rules as Analyze apply, and
// the counters feed the same /statsz snapshot.
func (s *Service) Admit(ctx context.Context, ts hetrta.Taskset) (*AdmitResult, error) {
	s.requests.Add(1)
	return s.admit(ctx, ts)
}

// AdmitDelta admits the taskset obtained by applying delta to the base set
// anchored under the base fingerprint — the churn-serving path. The base
// must be warm: any prior Admit or AdmitDelta of it on this service
// anchors its canonical taskset in the admit cache; a cold base returns
// ErrUnknownBase (the client falls back to a full Admit). The result is
// byte-identical to Admit of the full resulting set — the resulting
// fingerprint keys the same cache namespace, per-task evals are shared
// through the "eval|" namespace, and the Global step memo replays
// unchanged fixpoint iterations — so delta and whole-set requests for the
// same resulting system are interchangeable. Malformed deltas (a removed
// digest not in the base) satisfy errors.Is(err, hetrta.ErrInvalidInput).
func (s *Service) AdmitDelta(ctx context.Context, base hetrta.TasksetFingerprint, delta hetrta.TasksetDelta) (*AdmitResult, error) {
	s.requests.Add(1)
	// The store tier is consulted too: a base evicted from the LRU — or
	// admitted before a restart — revives from its admit record instead
	// of 404ing every delta until the cache re-warms. Only an entry with
	// an anchor can be replayed, and decodeRecord rejects any record
	// whose anchor is incoherent; anything else is indistinguishable from
	// a cold base and must surface ErrUnknownBase, never a partial-reuse
	// report or a 500.
	ent, ok := s.cacheGetFP(admitPrefix, base[:], s.tsig)
	if !ok {
		ent, ok = s.storeLookup(s.admitKeyOf(base))
	}
	if !ok || ent.anchor == nil {
		return nil, fmt.Errorf("%w: fingerprint %s not resident (never admitted or evicted); fall back to full admit", ErrUnknownBase, base)
	}
	a := ent.anchor
	// The resulting fingerprint falls out of the digest bookkeeping: only
	// tasks the delta introduced are hashed, never the resident base, and
	// the resulting taskset is built only if its report is not resident.
	e, err := delta.Resolve(a.count)
	if err != nil {
		return nil, hetrta.MarkInvalidInput(err)
	}
	return s.admitFP(ctx, a.fingerprintWith(e), func(ctx context.Context) (*entry, *hetrta.AdmitReport, error) {
		// The members come in canonical order, so the analyzer's own
		// canonical pass is the identity. Surviving members' handles seed
		// the admission's eval map.
		tasks, ds, handles := a.members(e)
		evals := make(map[hetrta.TaskDigest]*hetrta.TaskEvalHandle, len(tasks))
		for i, h := range handles {
			if h != nil {
				evals[ds[i]] = h
			}
		}
		ent, rep, err := s.runAdmit(ctx, hetrta.Taskset{Tasks: tasks}, ds, evals)
		if err != nil {
			return nil, nil, err
		}
		// The result refers to a full base and holds only the edit; the
		// result of a delta against a reference is anchored in full, so
		// references never chain.
		if a.ref == nil {
			ent.anchor = newRefAnchor(a, e, evals)
		} else {
			ent.anchor = newFullAnchor(tasks, ds, evals)
		}
		return ent, rep, nil
	})
}

// admit is Admit without the request accounting, so internal retries (the
// cancelled-leader fallback) do not double-count.
func (s *Service) admit(ctx context.Context, ts hetrta.Taskset) (*AdmitResult, error) {
	return s.admitFP(ctx, ts.Fingerprint(), func(ctx context.Context) (*entry, *hetrta.AdmitReport, error) {
		evals := make(map[hetrta.TaskDigest]*hetrta.TaskEvalHandle, len(ts.Tasks))
		ent, rep, err := s.runAdmit(ctx, ts, nil, evals)
		if err != nil {
			return nil, nil, err
		}
		// A private copy of the task list in canonical order; the member
		// graphs' canonical fingerprints are memoized from the admission,
		// so the digests are cheap.
		tasks := slices.Clone(ts.Tasks)
		ds := make([]hetrta.TaskDigest, len(tasks))
		for i := range tasks {
			ds[i] = tasks[i].Digest()
		}
		canon, ds := hetrta.Taskset{Tasks: tasks}.CanonicalWithGivenDigests(ds)
		ent.anchor = newFullAnchor(canon.Tasks, ds, evals)
		return ent, rep, nil
	})
}

// admitFP is admit with the taskset's fingerprint already in hand: the
// delta path derives it from the base entry's bookkeeping instead of full
// hash passes. A memory hit is found by the key's parts, so it builds no
// key string. run executes the admission on a miss and returns the entry,
// anchor set, with the report. The report exists only on the call that
// ran the analysis: the run closure hands it to this call's result, and
// the cache entry keeps just the body.
func (s *Service) admitFP(ctx context.Context, fp hetrta.TasksetFingerprint, run func(ctx context.Context) (*entry, *hetrta.AdmitReport, error)) (*AdmitResult, error) {
	if ent, ok := s.cacheGetFP(admitPrefix, fp[:], s.tsig); ok {
		s.hits.Add(1)
		return &AdmitResult{Body: ent.body, Hit: true, Fingerprint: fp}, nil
	}
	var rep *hetrta.AdmitReport
	ent, hit, shared, err := s.serveWith(ctx, s.admitKeyOf(fp), s.requestCounters(), s.storeLookup, func(ctx context.Context) (ent *entry, err error) {
		ent, rep, err = run(ctx)
		return ent, err
	})
	if err != nil {
		return nil, err
	}
	return &AdmitResult{Report: rep, Body: ent.body, Hit: hit, Shared: shared, Fingerprint: fp}, nil
}

// runAdmit executes the taskset analyzer once and serializes the report
// (the admission counterpart of runGraph); the caller anchors the entry.
// ds, when non-nil, is the precomputed digest slice parallel to ts.Tasks.
// evals maps digests to eval handles the admission resolves through; it
// may come seeded with the handles of a delta's base, and every handle
// resolved along the way joins it.
func (s *Service) runAdmit(ctx context.Context, ts hetrta.Taskset, ds []hetrta.TaskDigest, evals map[hetrta.TaskDigest]*hetrta.TaskEvalHandle) (*entry, *hetrta.AdmitReport, error) {
	if err := s.limiter.Acquire(ctx, costAdmit); err != nil {
		return nil, nil, err
	}
	defer s.limiter.Release(costAdmit)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1) // deferred: the gauge survives analyzer panics
	s.executions.Add(1)
	if err := s.inj.Fire(faultinject.Exec); err != nil {
		return nil, nil, err
	}
	// Seeded handles satisfy lookups without the string-keyed eval cache;
	// they still count as eval hits so churn metrics keep their meaning
	// (only never-seen tasks are prepared). Misses go through taskEval —
	// single-flight, counted, fault-injectable — and join the map.
	src := func(ctx context.Context, t hetrta.SporadicTask, dg hetrta.TaskDigest) (*hetrta.TaskEvalHandle, error) {
		if h, ok := evals[dg]; ok {
			s.evalHits.Add(1)
			return h, nil
		}
		h, err := s.taskEval(ctx, t, dg)
		if err == nil {
			evals[dg] = h
		}
		return h, err
	}
	rep, err := s.execAdmit(ctx, ts, ds, src)
	if err != nil {
		return nil, nil, err
	}
	// The direct MarshalJSON call sidesteps encoding/json's marshaler
	// wrapper, whose compact/validate rescan of the output costs more than
	// the encoding itself. The bytes are identical: the encoder emits no
	// insignificant whitespace and pre-escapes everything compact would.
	body, err := rep.MarshalJSON()
	if err != nil {
		return nil, nil, fmt.Errorf("service: marshaling admit report: %w", err)
	}
	return &entry{body: body}, rep, nil
}

// evalKeyOf derives the per-task eval cache key: the task digest under the
// per-DAG analyzer signature (bounds config feeds every eval; the policy
// list does not), in the "eval|" namespace of the shared sharded cache.
// The digest goes in as raw bytes — the key is internal to the cache, and
// hex-encoding 32 bytes per task per admission is measurable churn.
func (s *Service) evalKeyOf(dg hetrta.TaskDigest) string {
	return "eval|" + string(dg[:]) + "|" + s.sig
}

// taskEval resolves one task's evaluation handle through the shared cache
// under single-flight per task digest: concurrent admissions containing
// the same task prepare it exactly once, failures are never cached, and
// the publish ordering is the panic-safe one every namespace uses.
// Preparation runs inside the admission's limiter slot (runAdmit already
// holds costAdmit), so evals never double-acquire, and eval lookups feed
// the eval counters, not the request-level hit/miss economics.
func (s *Service) taskEval(ctx context.Context, t hetrta.SporadicTask, dg hetrta.TaskDigest) (*hetrta.TaskEvalHandle, error) {
	ent, _, _, err := s.serveWith(ctx, s.evalKeyOf(dg),
		serveCounters{&s.evalHits, &s.evalMisses, &s.evalFailures}, s.lookup,
		func(ctx context.Context) (*entry, error) {
			return s.prepareEval(t.G)
		})
	if err != nil {
		return nil, err
	}
	if ent.eval == nil {
		// An eval-keyed entry without a handle can only come from a
		// foreign insert; preparation is pure and content-addressed, so
		// repairing in place is always sound — the admission must never
		// fail (500) or partially reuse over a malformed handle.
		ent, err := s.prepareEval(t.G)
		if err != nil {
			s.evalFailures.Add(1)
			return nil, err
		}
		s.cache.add(s.evalKeyOf(dg), ent)
		return ent.eval, nil
	}
	return ent.eval, nil
}

// prepareEval builds the eval entry of one task graph. evalGraph keeps the
// original graph for the store tier, which is the handle's own work graph
// whenever the reduction removed nothing (workGraph).
func (s *Service) prepareEval(g *hetrta.Graph) (*entry, error) {
	h, err := s.ta.PrepareTaskEval(g)
	if err != nil {
		return nil, err
	}
	return &entry{eval: h, evalGraph: workGraph(h, g)}, nil
}

// admitCached is the default execAdmit: AdmitWith over the shared per-task
// eval cache and the Global step memo. Byte-identical to ta.Admit — eval
// handles memoize pure per-platform bound values and the step cache
// replays fixpoint iterations keyed on their full inputs — but an
// admission whose tasks are warm (the delta path) skips all per-task
// preparation and most policy iteration work.
func (s *Service) admitCached(ctx context.Context, ts hetrta.Taskset, ds []hetrta.TaskDigest, src hetrta.TaskEvalSource) (*hetrta.AdmitReport, error) {
	if src == nil {
		src = s.taskEval
	}
	return s.ta.AdmitPrepared(ctx, ts, ds, src, s.steps)
}

// AnalyzeBatch serves many graphs. Duplicates within the batch (by
// fingerprint) share their first occurrence's result; every first
// occurrence is served exactly as a single Analyze request would be —
// cache, degraded routing, single-flight, limiter — on a pool of
// batchWidth workers. Results come back in input order; per-graph failures
// are reported in Result.Err without failing the batch. The returned error
// is non-nil only when ctx is cancelled.
func (s *Service) AnalyzeBatch(ctx context.Context, gs []*hetrta.Graph) ([]*Result, error) {
	s.requests.Add(uint64(len(gs)))
	res := make([]*Result, len(gs))
	first := make([]int, len(gs)) // slot of each graph's first occurrence
	var firsts []int
	seen := make(map[dag.Fingerprint]int, len(gs))
	for i, g := range gs {
		if g == nil {
			s.failures.Add(1)
			res[i] = &Result{Err: errNilGraph}
			continue
		}
		fp := g.Fingerprint()
		j, ok := seen[fp]
		if !ok {
			j = i
			seen[fp] = i
			firsts = append(firsts, i)
		}
		first[i] = j
	}
	// Per-item errors stay in their slot: returning one would cancel the
	// siblings. Only the batch's own cancellation stops the fan-out.
	err := batch.Run(ctx, len(firsts), s.batchWidth, func(ctx context.Context, k int) error {
		i := firsts[k]
		r, err := s.analyze(ctx, gs[i])
		if err != nil {
			r = &Result{Err: err, Fingerprint: gs[i].Fingerprint()}
		}
		res[i] = r
		return ctx.Err()
	})
	for i, g := range gs {
		if g == nil {
			continue
		}
		j := first[i]
		if res[j] == nil { // never dispatched: the batch was cancelled
			res[j] = &Result{Err: err, Fingerprint: g.Fingerprint()}
		}
		if j == i {
			continue
		}
		r := *res[j]
		r.Report = nil // only the first occurrence ran the analysis
		if r.Hit {
			s.hits.Add(1)
		} else {
			s.coalesced.Add(1)
			r.Shared = r.Err == nil
		}
		if r.DegradedReason != "" {
			s.degraded.Add(1)
		}
		res[i] = &r
	}
	return res, err
}

func (s *Service) leadOrJoin(key string) (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flights[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	return f, true
}

func (s *Service) publish(key string, f *flight, ent *entry, err error) {
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	f.ent, f.err = ent, err
	close(f.done)
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Stats is a point-in-time snapshot of the service counters, shaped for
// the daemon's /statsz endpoint.
type Stats struct {
	// Requests counts analyzed graphs (a batch of n counts n).
	Requests uint64 `json:"requests"`
	// Hits and Misses partition cache lookups; HitRate = Hits/(Hits+Misses).
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hitRate"`
	// Executions counts Analyzer runs (one per distinct missed key).
	Executions uint64 `json:"executions"`
	// Coalesced counts requests that shared another request's execution
	// instead of running their own (single-flight joins plus in-batch
	// duplicates).
	Coalesced uint64 `json:"coalesced"`
	// Failures counts analyses that returned an error (never cached).
	Failures uint64 `json:"failures"`
	// Degraded counts degraded results served: bounds-only fallbacks
	// (breaker open, hard instance) plus full attempts that exhausted
	// their exact budget or deadline slice.
	Degraded uint64 `json:"degraded"`
	// BodyMemoHits counts single-graph request bodies whose graph
	// fingerprint the body memo knew, so they were neither decoded nor
	// fingerprinted when their report was resident. It is no Hits/Misses
	// partition: a known body whose report was evicted is also a miss.
	BodyMemoHits uint64 `json:"bodyMemoHits"`
	// EvalHits / EvalMisses / EvalFailures count per-task eval-cache
	// lookups on the admission path ("eval|" namespace). They are
	// deliberately disjoint from Hits/Misses: a delta admission that
	// reuses 32 cached task evals is still one request-level miss.
	EvalHits     uint64 `json:"evalHits"`
	EvalMisses   uint64 `json:"evalMisses"`
	EvalFailures uint64 `json:"evalFailures,omitempty"`
	// StepHits / StepMisses count Global-policy fixpoint memo lookups;
	// StepEntries is the memo's current size.
	StepHits    uint64 `json:"stepHits"`
	StepMisses  uint64 `json:"stepMisses"`
	StepEntries int    `json:"stepEntries,omitempty"`
	// InFlight is the number of executions running right now.
	InFlight int64 `json:"inFlight"`
	// Entries is the current cache occupancy; Capacity its limit;
	// Evictions the LRU evictions so far; ShardEntries the per-shard
	// occupancy.
	Entries      int    `json:"entries"`
	Capacity     int    `json:"capacity"`
	Evictions    uint64 `json:"evictions"`
	ShardEntries []int  `json:"shardEntries"`
	// Overload / Breaker / HardInstances snapshot the overload-protection
	// layer; present only when Options.Resilience enabled it (Breaker and
	// HardInstances additionally require an exact-enabled analyzer).
	Overload      *resilience.LimiterStats  `json:"overload,omitempty"`
	Breaker       *resilience.BreakerStats  `json:"breaker,omitempty"`
	HardInstances *resilience.NegCacheStats `json:"hardInstances,omitempty"`
	// Store snapshots the disk-backed second tier; present only when a
	// store is attached.
	Store *StoreStats `json:"store,omitempty"`
}

// StoreStats extends the store's own counters with the service-side view
// of the second tier. Same contract as every other Stats counter:
// individually monotonic, not snapshotted atomically as a group.
type StoreStats struct {
	store.Stats
	// WarmLoaded counts entries decoded into the LRU by the boot warm
	// start; WarmHits store-tier promotions at serve time (an LRU miss
	// answered from disk without recomputation); DecodeErrors records
	// that scanned cleanly but failed service-level decoding (skipped,
	// never served).
	WarmLoaded   uint64 `json:"warmLoaded"`
	WarmHits     uint64 `json:"warmHits"`
	DecodeErrors uint64 `json:"decodeErrors,omitempty"`
}

// Stats returns a snapshot of the service counters.
//
// The snapshot's contract is per-field monotonicity, not cross-field
// consistency: each cumulative counter (Requests, Hits, Misses,
// Executions, Coalesced, Failures, Degraded, Eval*, Step*, Evictions) is
// read atomically and never decreases between successive snapshots, but
// the fields are read one by one while flights publish concurrently, so a
// single snapshot can be torn ACROSS fields — e.g. a request counted in
// Requests whose hit is not yet in Hits, so Hits+Misses may momentarily
// trail Requests. Consumers (the /statsz tests, dashboards computing
// deltas) must therefore only compare the same field across snapshots, or
// quiesce the service before asserting cross-field identities.
// Point-in-time gauges (InFlight, Entries, ShardEntries, StepEntries) obey
// neither property. TestStatsMonotonicity pins the contract.
func (s *Service) Stats() Stats {
	st := Stats{
		Requests:     s.requests.Load(),
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Executions:   s.executions.Load(),
		Coalesced:    s.coalesced.Load(),
		Failures:     s.failures.Load(),
		Degraded:     s.degraded.Load(),
		BodyMemoHits: s.memoHits.Load(),
		EvalHits:     s.evalHits.Load(),
		EvalMisses:   s.evalMisses.Load(),
		EvalFailures: s.evalFailures.Load(),
		InFlight:     s.inFlight.Load(),
		Capacity:     s.cache.capacity(),
		Entries:      s.cache.len(),
		Evictions:    s.cache.evicted(),
		ShardEntries: s.cache.shardLens(),
	}
	st.StepHits, st.StepMisses, st.StepEntries = s.steps.Stats()
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	if s.limiter != nil {
		ls := s.limiter.Stats()
		st.Overload = &ls
	}
	if s.breaker != nil {
		bs := s.breaker.Stats()
		st.Breaker = &bs
		hs := s.hard.Stats()
		st.HardInstances = &hs
	}
	if s.store != nil {
		st.Store = &StoreStats{
			Stats:        s.store.Stats(),
			WarmLoaded:   s.warmLoaded.Load(),
			WarmHits:     s.warmHits.Load(),
			DecodeErrors: s.storeDecodeErrors.Load(),
		}
	}
	return st
}

// Ready reports whether the service can still make progress on NEW work.
// It is false only in the fully-wedged state: the breaker is open (the
// exact oracle is struggling) AND the limiter is saturated with a full
// wait queue — even the cheap degraded path has no slot budget left.
// /readyz maps false to 503 so load balancers drain away; /healthz stays
// 200 (the process itself is fine).
func (s *Service) Ready() bool {
	return !(s.breaker.Open() && s.limiter.Saturated())
}

// RetryAfter is the client backoff the HTTP layer advertises alongside a
// shed (429 Retry-After).
func (s *Service) RetryAfter() time.Duration {
	if d := s.limiter.RetryAfter(); d > 0 {
		return d
	}
	return time.Second
}
