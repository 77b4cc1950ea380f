// Command dagrtad is the analysis-as-a-service daemon: a long-running HTTP
// server wrapping one hetrta.Analyzer behind the deduplicating serving
// layer (internal/service). Identical — even merely isomorphic — task
// graphs are analyzed once and served from a sharded LRU cache; concurrent
// identical requests share a single execution (single-flight); batch
// requests coalesce duplicates and fan the misses out on the analyzer's
// worker pool.
//
// Endpoints:
//
//	POST /v1/analyze        task-graph JSON in (cmd/daggen schema), Report JSON out
//	POST /v1/analyze/batch  {"graphs":[...]} in, {"reports":[...]} out (per-item errors inline)
//	POST /v1/admit          sporadic-taskset JSON in ({"tasks":[{"graph":...,
//	                        "period":...,"deadline":...,"jitter":...}]}),
//	                        AdmitReport JSON out (federated + global verdicts)
//	POST /v1/admit/delta    incremental admission against a warm base:
//	                        {"base":"<taskset fingerprint>","add":[task...],
//	                        "remove":["<task digest>"...],"update":[{"old":
//	                        "<digest>","task":{...}}...]} in, the resulting
//	                        set's full AdmitReport out — byte-identical to a
//	                        whole-set /v1/admit of it; 404 with a reason when
//	                        the base is cold (client falls back to full admit)
//	POST /v1/warmup         bulk-load a store log stream (e.g. another
//	                        replica's -store file) into the cache; 409 when
//	                        the stream's generation does not match
//	GET  /healthz           liveness probe (200 while the process runs)
//	GET  /readyz            readiness probe (503 while draining or wedged)
//	GET  /statsz            cache hit rate, shard occupancy, overload counters
//	GET  /metrics           the same counters in Prometheus text format
//
// Admissions are cached under the taskset's canonical fingerprint — an
// order-insensitive hash over the member graphs' canonical fingerprints and
// sporadic parameters — so permuted or relabeled-but-isomorphic tasksets
// are served the identical cached bytes (X-Taskset-Fingerprint carries the
// hash).
//
// # Cache headers
//
// This is the single definition of the cache-status contract (the e2e
// tests pin it): every 200 from /v1/analyze, /v1/admit, and
// /v1/admit/delta carries exactly one X-Cache value —
//
//	hit     served from the report cache (memory or the -store tier)
//	shared  joined another request's in-flight execution
//	miss    this request ran the analyzer
//
// /v1/analyze additionally sets X-Fingerprint (the graph's canonical
// content hash); /v1/admit and /v1/admit/delta set X-Taskset-Fingerprint.
// Batch items report per-item state inline instead of headers.
//
// Each request is bounded by -request-timeout and aborts promptly —
// including mid-search inside the exact oracle — when the client
// disconnects. SIGINT and SIGTERM drain in-flight requests before exiting
// (-grace); /readyz flips to 503 the moment draining begins, -drain-delay
// ahead of the listener closing, so load balancers can route away first.
//
// With -store PATH, the report cache gains a disk-backed second tier: new
// results append (write-behind) to a CRC-framed record log, a restart
// warm-starts the cache by scanning it — previously served fingerprints
// return byte-identical bodies with zero recomputation — and entries
// evicted from memory revive from disk on the next request. The log is
// generation-stamped with the service configuration signature, so changing
// platform/bounds/policy flags invalidates it instead of serving stale
// records.
//
// Operating under load: a cost-classed concurrency limiter with a bounded
// wait queue (-max-concurrent, -max-queue) fronts every analysis; when the
// queue is full the request is shed with 429 and a Retry-After header
// (-retry-after). With -exact, analyses whose exact search exhausts its
// expansion budget or its -exact-slice return a valid bounds-only report
// marked "degraded" instead of stalling, a circuit breaker
// (-breaker-threshold) plus a negative cache of known-hard fingerprints
// (-hard-cache) route repeat offenders around the exact oracle entirely,
// and /statsz exposes the shed/degraded/breaker counters.
//
// Usage:
//
//	dagrtad -addr :8080 -platform 4+1
//	dagrtad -addr 127.0.0.1:0 -platform "host=4,gpu=1,fpga=2" -bounds rhom,rhet,typed-rhom -exact
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	hetrta "repro"
	"repro/internal/dag"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// config is everything the HTTP layer derives from flags.
type config struct {
	addr           string
	requestTimeout time.Duration
	grace          time.Duration
	drainDelay     time.Duration
	maxBody        int64
	maxBatch       int
}

// serviceConfig is everything buildService derives from flags: the analyzer
// pipeline plus the serving layer's cache and overload-protection knobs.
type serviceConfig struct {
	platform  string
	bounds    string
	sim       bool
	exact     bool
	budget    int64
	exactPoll int64
	// exactParallel is the deprecated -exact-parallel value. It is ignored
	// (the exact search is serial) but still validated, so existing
	// command lines parse as before.
	exactParallel int
	// exactSlice bounds each full analysis' exact-oracle stage; past it the
	// report degrades to bounds-only instead of erroring.
	exactSlice time.Duration
	parallel   int

	cacheSize int
	shards    int
	storePath string

	maxConcurrent    int
	maxQueue         int
	retryAfter       time.Duration
	breakerThreshold int
	hardCache        int

	inj *faultinject.Injector
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	return runWith(ctx, args, stdout, stderr, nil)
}

// runWith is run with a fault-injection seam: chaos tests arm inj to
// inject latency, errors, and panics into the serving path; production
// (run) passes nil.
func runWith(ctx context.Context, args []string, stdout, stderr io.Writer, inj *faultinject.Injector) int {
	fs := flag.NewFlagSet("dagrtad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
		platSpec   = fs.String("platform", "4+1", `platform spec, e.g. "4+1" or "host=4,gpu=1,fpga=2"`)
		boundsSpec = fs.String("bounds", "rhom,rhet", "comma-separated bounds: rhom, rhet, typed-rhom, naive")
		doSim      = fs.Bool("sim", false, "include a breadth-first simulation in every report")
		doExact    = fs.Bool("exact", false, "include the exact minimum makespan in every report")
		budget     = fs.Int64("budget", 0, "exact-solver expansion budget (0 = default)")
		exactPoll  = fs.Int64("exact-poll", 0, "exact-solver context poll interval in expansions (0 = default)")
		exactPar   = fs.Int("exact-parallel", 0, "deprecated, ignored")
		exactSlice = fs.Duration("exact-slice", 0, "per-analysis exact-stage time slice; past it the report degrades to bounds-only (0 = no slice)")
		parallel   = fs.Int("parallel", 0, "analyzer worker-pool size for batch requests (0 = all CPUs)")
		cacheSize  = fs.Int("cache", service.DefaultCacheEntries, "report-cache capacity in entries")
		shards     = fs.Int("cache-shards", service.DefaultShards, "report-cache shard count (rounded up to a power of two)")
		storePath  = fs.String("store", "", "disk-backed cache log path; enables warm starts and the second cache tier (empty = memory only)")
		reqTimeout = fs.Duration("request-timeout", 30*time.Second, "per-request analysis timeout")
		grace      = fs.Duration("grace", 10*time.Second, "graceful-shutdown drain timeout")
		drainDelay = fs.Duration("drain-delay", 0, "pause between flipping /readyz to 503 and closing the listener, for load balancers to route away")
		maxBody    = fs.Int64("max-body", 8<<20, "maximum request body size in bytes")
		maxBatch   = fs.Int("max-batch", 1024, "maximum graphs per batch request")
		maxConc    = fs.Int("max-concurrent", 0, "concurrent analysis cost units (0 = 2 x GOMAXPROCS); a batch of n graphs costs n")
		maxQueue   = fs.Int("max-queue", 64, "analyses that may wait for a slot before further requests are shed with 429")
		retryAfter = fs.Duration("retry-after", time.Second, "client backoff advertised in the Retry-After header of shed responses")
		brkThresh  = fs.Int("breaker-threshold", 0, "consecutive exact-stage failures that open the circuit breaker (0 = default)")
		hardCache  = fs.Int("hard-cache", 0, "capacity of the known-hard-fingerprint cache that skips the exact oracle (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sc := serviceConfig{
		platform:      *platSpec,
		bounds:        *boundsSpec,
		sim:           *doSim,
		exact:         *doExact,
		budget:        *budget,
		exactPoll:     *exactPoll,
		exactParallel: *exactPar,

		exactSlice: *exactSlice,
		parallel:   *parallel,

		cacheSize: *cacheSize,
		shards:    *shards,
		storePath: *storePath,

		maxConcurrent:    *maxConc,
		maxQueue:         *maxQueue,
		retryAfter:       *retryAfter,
		breakerThreshold: *brkThresh,
		hardCache:        *hardCache,

		inj: inj,
	}
	svc, st, err := buildService(sc)
	if err != nil {
		fmt.Fprintln(stderr, "dagrtad:", err)
		return 2
	}
	if st != nil {
		// Close flushes the write-behind queue, so results computed up to
		// the moment of shutdown survive into the next warm start.
		defer st.Close()
	}
	cfg := config{
		addr:           *addr,
		requestTimeout: *reqTimeout,
		grace:          *grace,
		drainDelay:     *drainDelay,
		maxBody:        *maxBody,
		maxBatch:       *maxBatch,
	}
	d := &daemon{svc: svc, cfg: cfg, inj: inj, errw: stderr}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintln(stderr, "dagrtad:", err)
		return 1
	}
	fmt.Fprintf(stdout, "dagrtad listening on %s (platform %s, signature %q)\n",
		ln.Addr(), svc.Platform(), svc.Signature())

	unused := &newConns{conns: make(map[net.Conn]struct{})}
	srv := &http.Server{
		Handler:           d.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         unused.track,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Fprintln(stdout, "dagrtad: shutting down")
		// Flip readiness before closing the listener so load balancers
		// polling /readyz drain away while connections still work.
		d.draining.Store(true)
		if cfg.drainDelay > 0 {
			time.Sleep(cfg.drainDelay)
		}
		unused.drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(stderr, "dagrtad: shutdown:", err)
			srv.Close() // grace exceeded: hard-close the stragglers
			return 1
		}
		return 0
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "dagrtad:", err)
			return 1
		}
		return 0
	}
}

// newConns tracks the connections that have not sent a request yet
// (http.StateNew). Shutdown would wait up to 5 s for each of them to send
// one; once draining starts they are closed instead, as is any connection
// accepted after that.
type newConns struct {
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
}

// track is the server's ConnState hook.
func (nc *newConns) track(c net.Conn, state http.ConnState) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(nc.conns, c)
	case nc.draining:
		c.Close()
	default:
		nc.conns[c] = struct{}{}
	}
}

// drain closes every unused connection, now and from now on.
func (nc *newConns) drain() {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	nc.draining = true
	for c := range nc.conns { //lint:ordered closing order is unobservable
		c.Close()
	}
	nc.conns = nil
}

// buildService assembles the Analyzer from daemon flags and wraps it in the
// serving layer with the overload-protection stack. With a store path
// configured it also opens (creating or invalidating as needed) the
// disk-backed cache log and warm-starts the service from it; the returned
// store is non-nil exactly then, and the caller owns closing it.
func buildService(sc serviceConfig) (*service.Service, *store.Store, error) {
	plat, err := hetrta.ParsePlatform(sc.platform)
	if err != nil {
		return nil, nil, err
	}
	var bounds []hetrta.Bound
	for _, name := range strings.Split(sc.bounds, ",") {
		switch strings.TrimSpace(name) {
		case "rhom":
			bounds = append(bounds, hetrta.RhomBound())
		case "rhet":
			bounds = append(bounds, hetrta.RhetBound())
		case "typed-rhom":
			bounds = append(bounds, hetrta.TypedRhomBound())
		case "naive":
			bounds = append(bounds, hetrta.NaiveBound())
		case "":
		default:
			return nil, nil, fmt.Errorf("unknown bound %q", name)
		}
	}
	if len(bounds) == 0 {
		return nil, nil, fmt.Errorf("empty bound set %q", sc.bounds)
	}
	if !sc.exact && (sc.budget != 0 || sc.exactPoll != 0 || sc.exactParallel != 0 || sc.exactSlice != 0) {
		return nil, nil, fmt.Errorf("-budget/-exact-poll/-exact-parallel/-exact-slice require -exact")
	}
	if sc.exactParallel < 0 {
		return nil, nil, fmt.Errorf("negative -exact-parallel %d", sc.exactParallel)
	}
	opts := []hetrta.Option{
		hetrta.WithPlatform(plat),
		hetrta.WithBounds(bounds...),
		hetrta.WithParallelism(sc.parallel),
	}
	if sc.sim {
		opts = append(opts, hetrta.WithPolicy(hetrta.BreadthFirst))
	}
	if sc.exact {
		opts = append(opts, hetrta.WithExactOptions(hetrta.ExactOptions{
			MaxExpansions: sc.budget,
			CtxCheckEvery: sc.exactPoll,
		}))
		// The daemon always serves degraded-but-valid bounds when the exact
		// stage runs out of budget or slice: a serving endpoint must answer,
		// not error, on hard instances.
		opts = append(opts, hetrta.WithDegradation(hetrta.DegradeOptions{ExactSlice: sc.exactSlice}))
	}
	an, err := hetrta.NewAnalyzer(opts...)
	if err != nil {
		return nil, nil, err
	}
	svc, err := service.New(an, service.Options{
		CacheEntries: sc.cacheSize,
		Shards:       sc.shards,
		Resilience: &service.ResilienceOptions{
			Limiter: resilience.LimiterOptions{
				Capacity:   sc.maxConcurrent,
				MaxQueue:   sc.maxQueue,
				RetryAfter: sc.retryAfter,
			},
			Breaker:   resilience.BreakerOptions{FailureThreshold: sc.breakerThreshold},
			HardCache: resilience.NegCacheOptions{Capacity: sc.hardCache},
		},
		FaultInjector: sc.inj,
	})
	if err != nil {
		return nil, nil, err
	}
	if sc.storePath == "" {
		return svc, nil, nil
	}
	st, err := store.Open(store.Options{Path: sc.storePath, Generation: svc.Generation()})
	if err != nil {
		return nil, nil, err
	}
	if err := svc.AttachStore(st); err != nil {
		st.Close()
		return nil, nil, err
	}
	return svc, st, nil
}

// daemon is the HTTP layer's shared state: the service, the config, the
// fault-injection seam, and the counters /statsz reports on top of the
// service's own.
type daemon struct {
	svc  *service.Service
	cfg  config
	inj  *faultinject.Injector
	errw io.Writer

	// draining flips once shutdown begins; /readyz maps it to 503.
	draining  atomic.Bool
	recovered atomic.Uint64
	writeErrs atomic.Uint64
}

// handler wires the endpoints behind the recovery middleware.
func (d *daemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", d.handleAnalyze)
	mux.HandleFunc("POST /v1/analyze/batch", d.handleBatch)
	mux.HandleFunc("POST /v1/admit", d.handleAdmit)
	mux.HandleFunc("POST /v1/admit/delta", d.handleAdmitDelta)
	mux.HandleFunc("POST /v1/warmup", d.handleWarmup)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		d.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", d.handleReady)
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		d.writeJSON(w, http.StatusOK, statsResponse{
			Stats:               d.svc.Stats(),
			RecoveredPanics:     d.recovered.Load(),
			ResponseWriteErrors: d.writeErrs.Load(),
			Draining:            d.draining.Load(),
		})
	})
	return d.protect(mux)
}

// statsResponse is /statsz's wire shape: the service counters plus the
// HTTP layer's own.
type statsResponse struct {
	service.Stats
	RecoveredPanics     uint64 `json:"recoveredPanics"`
	ResponseWriteErrors uint64 `json:"responseWriteErrors"`
	Draining            bool   `json:"draining"`
}

// protect is the outermost middleware: a handler panic (a bug, or an
// injected fault) is recovered, counted, and mapped to 503 — one request
// dies, the daemon does not. It also hosts the Handler fault-injection
// seam.
func (d *daemon) protect(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				d.recovered.Add(1)
				fmt.Fprintf(d.errw, "dagrtad: recovered panic serving %s: %v\n", r.URL.Path, rec)
				d.httpError(w, http.StatusServiceUnavailable, "internal fault, request aborted")
			}
		}()
		if err := d.inj.Fire(faultinject.Handler); err != nil {
			d.httpError(w, http.StatusServiceUnavailable, "injected handler fault")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// handleReady is the readiness probe: 503 once shutdown begins, and while
// the service is wedged (breaker open with the limiter's queue budget
// exhausted); /healthz stays 200 throughout — the process is alive, it
// just should not receive new traffic.
func (d *daemon) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case d.draining.Load():
		d.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !d.svc.Ready():
		d.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "overloaded"})
	default:
		d.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// requestCtx bounds the analysis by the per-request timeout on top of the
// request context, so both client disconnect and timeout cancel the
// pipeline (the context is threaded all the way into the exact oracle's
// poll loop).
func (d *daemon) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if d.cfg.requestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d.cfg.requestTimeout)
}

// readBody reads the request body under the -max-body cap, writing the
// error response itself on failure: the cap maps to 413, a transport-level
// read failure (client hung up mid-body, short chunked stream) to 400.
func (d *daemon) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := readAll(http.MaxBytesReader(w, r.Body, d.cfg.maxBody), r.ContentLength)
	if err == nil {
		return body, true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		d.httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("body exceeds the %d-byte limit", tooLarge.Limit))
	} else {
		d.httpError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
	}
	return nil, false
}

// bodyBufCap caps the first buffer readAll sizes from a declared length:
// a client that declares -max-body and sends nothing reserves no more.
const bodyBufCap = 64 << 10

// readAll is io.ReadAll with its first buffer sized for a body of n bytes
// (n < 0 when unknown), up to bodyBufCap, so a body of declared length up
// to the cap arrives in one allocation. Past the buffer it grows as
// io.ReadAll does.
func readAll(r io.Reader, n int64) ([]byte, error) {
	size := 512
	if n >= 0 {
		size = int(min(n+1, bodyBufCap)) // +1: room for the read that sees io.EOF
	}
	b := make([]byte, 0, size)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// handleAnalyze serves a body the service has decoded before, and whose
// report is resident, by the body's hash alone: no decode, no fingerprint,
// no request-timeout context. Every other body takes the full path.
func (d *daemon) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, ok := d.readBody(w, r)
	if !ok {
		return
	}
	res, key := d.svc.LookupBody(body)
	if res == nil {
		g, err := dag.Decode(body)
		if err != nil {
			d.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		ctx, cancel := d.requestCtx(r)
		defer cancel()
		if res, err = d.svc.AnalyzeBody(ctx, g, key); err != nil {
			d.writeAnalysisError(w, err)
			return
		}
	}
	w.Header().Set("X-Cache", cacheStatus(res.Hit, res.Shared))
	w.Header().Set("X-Fingerprint", res.Fingerprint.String())
	if res.DegradedReason != "" {
		w.Header().Set("X-Degraded", res.DegradedReason)
	}
	d.writeOK(w, res.Body)
}

func (d *daemon) handleAdmit(w http.ResponseWriter, r *http.Request) {
	body, ok := d.readBody(w, r)
	if !ok {
		return
	}
	ts, err := hetrta.DecodeAdmitRequest(body, d.cfg.maxBatch)
	if err != nil {
		d.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := d.requestCtx(r)
	defer cancel()
	res, err := d.svc.Admit(ctx, ts)
	if err != nil {
		d.writeAnalysisError(w, err)
		return
	}
	w.Header().Set("X-Cache", cacheStatus(res.Hit, res.Shared))
	w.Header().Set("X-Taskset-Fingerprint", res.Fingerprint.String())
	d.writeOK(w, res.Body)
}

func (d *daemon) handleAdmitDelta(w http.ResponseWriter, r *http.Request) {
	body, ok := d.readBody(w, r)
	if !ok {
		return
	}
	base, delta, err := hetrta.DecodeAdmitDeltaRequest(body, d.cfg.maxBatch)
	if err != nil {
		d.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := d.requestCtx(r)
	defer cancel()
	res, err := d.svc.AdmitDelta(ctx, base, delta)
	if err != nil {
		d.writeAnalysisError(w, err)
		return
	}
	w.Header().Set("X-Cache", cacheStatus(res.Hit, res.Shared))
	w.Header().Set("X-Taskset-Fingerprint", res.Fingerprint.String())
	d.writeOK(w, res.Body)
}

// handleWarmup bulk-loads a store log stream — typically another replica's
// -store file — into the cache (and, when this daemon has a store, its own
// log), so a fresh replica starts warm without replaying traffic. The
// stream's generation header must match this daemon's configuration
// signature; a mismatch is 409 (the operator pointed replicas with
// different flags at each other), a malformed stream 400.
func (d *daemon) handleWarmup(w http.ResponseWriter, r *http.Request) {
	ws, err := d.svc.Warmup(http.MaxBytesReader(w, r.Body, d.cfg.maxBody))
	if err != nil {
		switch {
		case errors.Is(err, store.ErrGenerationMismatch):
			d.httpError(w, http.StatusConflict, err.Error())
		default:
			d.httpError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	d.writeJSON(w, http.StatusOK, ws)
}

// /v1/analyze/batch answers {"reports":[...]} (the request is
// hetrta.DecodeBatchRequest's). The reports mirror Analyzer.AnalyzeBatch:
// one element per input graph, in order, with per-item failures carried
// in the report's "error" field — the same schema cmd/dagrta -json emits.
// Each element is the pre-serialized report body, sent verbatim.
func (d *daemon) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := d.readBody(w, r)
	if !ok {
		return
	}
	// A graph that fails to decode stays nil and is reported per item, not
	// failing the batch.
	graphs, decodeErrs, err := hetrta.DecodeBatchRequest(body, d.cfg.maxBatch)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, hetrta.ErrRequestLimit) {
			code = http.StatusRequestEntityTooLarge
		}
		d.httpError(w, code, err.Error())
		return
	}
	ctx, cancel := d.requestCtx(r)
	defer cancel()
	results, err := d.svc.AnalyzeBatch(ctx, graphs)
	if err != nil {
		d.writeAnalysisError(w, err)
		return
	}
	degradedCount := 0
	out := []byte(batchOpen)
	for i, res := range results {
		if i > 0 {
			out = append(out, ',')
		}
		switch {
		case decodeErrs[i] != nil:
			out = append(out, errorReport(d.svc, decodeErrs[i])...)
		case res.Err != nil:
			out = append(out, errorReport(d.svc, res.Err)...)
		default:
			if res.DegradedReason != "" {
				degradedCount++
			}
			out = append(out, res.Body...)
		}
	}
	out = append(out, batchClose...)
	// Batch callers get the degraded tally up front; each affected item
	// also carries its own "degraded"/"degradedReason" fields inline.
	w.Header().Set("X-Degraded-Count", strconv.Itoa(degradedCount))
	d.writeOK(w, out)
}

// The batch response's frame around its comma-joined reports. The closing
// newline is the framing json.Encoder gives the daemon's other JSON
// answers.
const (
	batchOpen  = `{"reports":[`
	batchClose = "]}\n"
)

// errorReport renders a per-item failure in the Report wire schema
// ({"error": "..."} alongside the platform), matching the error slots of
// Analyzer.AnalyzeBatch.
func errorReport(svc *service.Service, err error) json.RawMessage {
	b, merr := json.Marshal(&hetrta.Report{Platform: svc.Platform(), Err: err.Error()})
	if merr != nil {
		return json.RawMessage(`{"error":"failed to encode error report"}`)
	}
	return b
}

// cacheStatus renders the X-Cache header value for all three serving
// endpoints — the one implementation of the contract documented in the
// package comment ("Cache headers"): hit beats shared beats miss, and
// every 200 carries exactly one of them.
func cacheStatus(hit, shared bool) string {
	switch {
	case hit:
		return "hit"
	case shared:
		return "shared"
	default:
		return "miss"
	}
}

// writeAnalysisError maps a service error to a status by what CAUSED it,
// not just where it surfaced: input-shaped failures (model validation,
// malformed deltas, no safe bound, the analysis itself rejecting the
// graph) are the client's 4xx; everything else — injected faults,
// cache-marshal failures, missing reports — is OUR 500, so operators see
// infrastructure trouble instead of clients retrying unfixable requests.
func (d *daemon) writeAnalysisError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, resilience.ErrOverloaded):
		w.Header().Set("Retry-After", retryAfterSeconds(d.svc.RetryAfter()))
		d.httpError(w, http.StatusTooManyRequests, "overloaded, retry later")
	case errors.Is(err, context.DeadlineExceeded):
		d.httpError(w, http.StatusGatewayTimeout, "analysis timed out")
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is moot but 499-style closing is
		// conventional (no stdlib constant, use 408).
		d.httpError(w, http.StatusRequestTimeout, "request cancelled")
	case errors.Is(err, service.ErrUnknownBase):
		// Delta admission against a cold base: the reason tells the client
		// to fall back to a full /v1/admit of the resulting set.
		d.httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, hetrta.ErrInvalidInput):
		d.httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, service.ErrAnalysis), errors.Is(err, hetrta.ErrNoSafeBound):
		d.httpError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		d.httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// retryAfterSeconds renders a backoff as the Retry-After header's
// delta-seconds form, rounding up so a sub-second hint never becomes 0
// ("retry immediately").
func retryAfterSeconds(dur time.Duration) string {
	secs := int64((dur + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (d *daemon) httpError(w http.ResponseWriter, code int, msg string) {
	d.writeJSON(w, code, map[string]string{"error": msg})
}

func (d *daemon) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		d.noteWriteError(err)
	}
}

// writeOK writes a 200 carrying one pre-serialized JSON body. The declared
// Content-Length lets net/http send a body past its 2 KB buffer as is,
// not chunked.
func (d *daemon) writeOK(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	d.writeBody(w, body)
}

// writeBody writes pre-serialized response bytes, counting (not masking)
// failures: by this point the status line is sent, so all that is left is
// observability.
func (d *daemon) writeBody(w http.ResponseWriter, body []byte) {
	if _, err := w.Write(body); err != nil {
		d.noteWriteError(err)
	}
}

func (d *daemon) noteWriteError(err error) {
	d.writeErrs.Add(1)
	fmt.Fprintln(d.errw, "dagrtad: writing response:", err)
}
