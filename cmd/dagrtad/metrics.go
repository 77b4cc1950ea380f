package main

// GET /metrics: the /statsz counters re-shaped into the Prometheus text
// exposition format (version 0.0.4), hand-rolled on the stdlib like the
// rest of the repo — a scraper needs `# TYPE` lines and `name{labels}
// value` samples, not a client library. Counter semantics follow the
// Stats() contract: each sample is individually monotonic, but one
// scrape is not an atomic snapshot across families.

import (
	"net/http"
	"strconv"
	"strings"
)

// promBuf accumulates one exposition. Families must be emitted with
// their HELP/TYPE header before any sample, and each family exactly
// once — the strict parser in the e2e test enforces both.
type promBuf struct {
	b strings.Builder
}

// family writes the # HELP / # TYPE header for a metric family.
func (p *promBuf) family(name, typ, help string) {
	p.b.WriteString("# HELP ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(help)
	p.b.WriteString("\n# TYPE ")
	p.b.WriteString(name)
	p.b.WriteByte(' ')
	p.b.WriteString(typ)
	p.b.WriteByte('\n')
}

// sample writes one `name{labels} value` line; labels may be empty.
func (p *promBuf) sample(name, labels string, value string) {
	p.b.WriteString(name)
	if labels != "" {
		p.b.WriteByte('{')
		p.b.WriteString(labels)
		p.b.WriteByte('}')
	}
	p.b.WriteByte(' ')
	p.b.WriteString(value)
	p.b.WriteByte('\n')
}

// counter emits a single-sample counter family.
func (p *promBuf) counter(name, help string, v uint64) {
	p.family(name, "counter", help)
	p.sample(name, "", strconv.FormatUint(v, 10))
}

// gauge emits a single-sample gauge family.
func (p *promBuf) gauge(name, help string, v int64) {
	p.family(name, "gauge", help)
	p.sample(name, "", strconv.FormatInt(v, 10))
}

func boolGauge(v bool) int64 {
	if v {
		return 1
	}
	return 0
}

// renderMetrics formats one stats snapshot as Prometheus text.
func renderMetrics(st statsResponse) string {
	var p promBuf

	p.counter("dagrtad_requests_total", "Requests served (a batch of n graphs counts n).", st.Requests)
	p.counter("dagrtad_cache_hits_total", "Report-cache hits (memory or store tier).", st.Hits)
	p.counter("dagrtad_cache_misses_total", "Report-cache misses that led an execution.", st.Misses)
	p.counter("dagrtad_cache_shared_total", "Requests that joined another request's in-flight execution.", st.Coalesced)
	p.counter("dagrtad_cache_evictions_total", "LRU evictions across all cache shards.", st.Evictions)
	p.counter("dagrtad_executions_total", "Analyzer runs (one per distinct missed key).", st.Executions)
	p.counter("dagrtad_failures_total", "Analyses that returned an error (never cached).", st.Failures)
	p.counter("dagrtad_degraded_total", "Degraded (bounds-only) results served.", st.Degraded)
	p.counter("dagrtad_body_memo_hits_total", "Analyze bodies whose graph fingerprint was known from an identical earlier body.", st.BodyMemoHits)
	p.counter("dagrtad_eval_hits_total", "Per-task eval-cache hits on the admission path.", st.EvalHits)
	p.counter("dagrtad_eval_misses_total", "Per-task eval-cache misses on the admission path.", st.EvalMisses)
	p.counter("dagrtad_eval_failures_total", "Per-task eval preparations that failed.", st.EvalFailures)
	p.counter("dagrtad_recovered_panics_total", "Handler panics recovered by the HTTP layer.", st.RecoveredPanics)
	p.counter("dagrtad_response_write_errors_total", "Response bodies that failed to write out.", st.ResponseWriteErrors)

	p.gauge("dagrtad_in_flight", "Analyses executing right now.", st.InFlight)
	p.gauge("dagrtad_cache_entries", "Report-cache occupancy in entries.", int64(st.Entries))
	p.gauge("dagrtad_cache_capacity", "Report-cache capacity in entries.", int64(st.Capacity))
	p.gauge("dagrtad_draining", "1 while graceful shutdown is draining requests.", boolGauge(st.Draining))

	p.family("dagrtad_cache_shard_entries", "gauge", "Per-shard report-cache occupancy.")
	for i, n := range st.ShardEntries {
		p.sample("dagrtad_cache_shard_entries", `shard="`+strconv.Itoa(i)+`"`, strconv.Itoa(n))
	}

	if o := st.Overload; o != nil {
		p.counter("dagrtad_overload_admitted_total", "Limiter acquisitions that succeeded.", o.Admitted)
		p.counter("dagrtad_overload_queued_total", "Limiter acquisitions that waited for a slot.", o.Queued)
		p.counter("dagrtad_overload_shed_total", "Requests shed with 429 by the limiter.", o.Shed)
		p.gauge("dagrtad_overload_in_use", "Limiter cost units currently held.", o.InUse)
		p.gauge("dagrtad_overload_capacity", "Limiter cost-unit capacity.", o.Capacity)
		p.gauge("dagrtad_overload_queue_depth", "Acquisitions currently waiting for a slot.", int64(o.QueueDepth))
	}
	if b := st.Breaker; b != nil {
		p.counter("dagrtad_breaker_opens_total", "Circuit-breaker closed-to-open transitions.", b.Opens)
		p.counter("dagrtad_breaker_probes_total", "Half-open probes let through while open.", b.Probes)
		p.counter("dagrtad_breaker_rejected_total", "Requests routed to the degraded path by an open breaker.", b.Rejected)
		p.gauge("dagrtad_breaker_open", "1 while the circuit breaker is open.", boolGauge(b.State == "open"))
	}
	if h := st.HardInstances; h != nil {
		p.counter("dagrtad_hard_added_total", "Fingerprints marked as known-hard.", h.Added)
		p.counter("dagrtad_hard_removed_total", "Known-hard fingerprints upgraded by a full success.", h.Removed)
		p.counter("dagrtad_hard_probes_total", "Known-hard cache probes.", h.Probes)
		p.gauge("dagrtad_hard_entries", "Known-hard fingerprints currently cached.", int64(h.Entries))
	}
	if s := st.Store; s != nil {
		p.counter("dagrtad_store_records_loaded_total", "Good records scanned from the log at boot.", s.RecordsLoaded)
		p.counter("dagrtad_store_bytes_loaded_total", "Bytes of good records scanned at boot.", s.BytesLoaded)
		p.counter("dagrtad_store_tail_truncations_total", "Crash-truncated log tails dropped at boot.", s.TailTruncations)
		p.counter("dagrtad_store_invalidations_total", "Whole-log discards from a generation mismatch.", s.Invalidations)
		p.counter("dagrtad_store_appends_total", "Records durably appended to the log.", s.Appends)
		p.counter("dagrtad_store_append_errors_total", "Log append failures (store goes read-only after the first).", s.AppendErrors)
		p.counter("dagrtad_store_dropped_total", "Appends shed by the bounded write-behind queue.", s.Dropped)
		p.counter("dagrtad_store_warm_loaded_total", "Entries decoded into the cache by the boot warm start.", s.WarmLoaded)
		p.counter("dagrtad_store_warm_hits_total", "Cache misses answered from the store tier without recomputation.", s.WarmHits)
		p.counter("dagrtad_store_decode_errors_total", "Store records that failed service-level decoding.", s.DecodeErrors)
		p.gauge("dagrtad_store_size_bytes", "Current log size in bytes.", s.SizeBytes)
		p.gauge("dagrtad_store_live_keys", "Distinct keys live in the log index.", int64(s.LiveKeys))
	}
	return p.b.String()
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (d *daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := renderMetrics(statsResponse{
		Stats:               d.svc.Stats(),
		RecoveredPanics:     d.recovered.Load(),
		ResponseWriteErrors: d.writeErrs.Load(),
		Draining:            d.draining.Load(),
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	d.writeBody(w, []byte(body))
}
