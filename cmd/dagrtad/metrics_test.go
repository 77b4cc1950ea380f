package main

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/store"
)

var (
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$`)
	promLabelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$`)
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
)

// parsePromText is a strict Prometheus text-format (0.0.4) validator: it
// fails the test on any malformed line, a sample without a preceding
// TYPE, a duplicate family header, a counter not ending in _total, or a
// negative counter value. It returns samples keyed by name{labels}.
func parsePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	types := make(map[string]string)
	helped := make(map[string]bool)
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !promNameRe.MatchString(name) {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !promNameRe.MatchString(name) || (typ != "counter" && typ != "gauge") {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if typ == "counter" && !strings.HasSuffix(name, "_total") {
				t.Fatalf("line %d: counter %s does not end in _total", ln+1, name)
			}
			types[name] = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			name, labels, value := m[1], m[2], m[3]
			typ, ok := types[name]
			if !ok {
				t.Fatalf("line %d: sample %s has no preceding TYPE", ln+1, name)
			}
			if labels != "" {
				for _, pair := range strings.Split(strings.Trim(labels, "{}"), ",") {
					if !promLabelRe.MatchString(pair) {
						t.Fatalf("line %d: malformed label %q", ln+1, pair)
					}
				}
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("line %d: unparseable value %q", ln+1, value)
			}
			if typ == "counter" && v < 0 {
				t.Fatalf("line %d: negative counter %s = %v", ln+1, name, v)
			}
			key := name + labels
			if _, dup := samples[key]; dup {
				t.Fatalf("line %d: duplicate sample %s", ln+1, key)
			}
			samples[key] = v
		}
	}
	return samples
}

// TestRenderMetricsValid renders a synthetic snapshot with every optional
// block populated and runs it through the strict validator, pinning both
// the format and a few values.
func TestRenderMetricsValid(t *testing.T) {
	st := statsResponse{
		Stats: service.Stats{
			Requests: 10, Hits: 4, Misses: 6, Executions: 6, Coalesced: 2,
			Failures: 1, Degraded: 3, BodyMemoHits: 8, EvalHits: 7, EvalMisses: 5,
			InFlight: 2, Entries: 9, Capacity: 64, Evictions: 1,
			ShardEntries: []int{3, 6},
			Overload:     &resilience.LimiterStats{Capacity: 8, InUse: 2, Admitted: 20, Shed: 4},
			Breaker:      &resilience.BreakerStats{State: "open", Opens: 2, Rejected: 5},
			HardInstances: &resilience.NegCacheStats{
				Entries: 1, Capacity: 16, Added: 2, Probes: 9,
			},
			Store: &service.StoreStats{
				Stats: store.Stats{
					RecordsLoaded: 12, BytesLoaded: 4096, TailTruncations: 1,
					Appends: 30, SizeBytes: 8192, LiveKeys: 12,
				},
				WarmLoaded: 12, WarmHits: 3,
			},
		},
		RecoveredPanics:     1,
		ResponseWriteErrors: 2,
		Draining:            true,
	}
	samples := parsePromText(t, renderMetrics(st))
	want := map[string]float64{
		"dagrtad_requests_total":                 10,
		"dagrtad_cache_hits_total":               4,
		"dagrtad_cache_shared_total":             2,
		"dagrtad_cache_evictions_total":          1,
		"dagrtad_degraded_total":                 3,
		"dagrtad_body_memo_hits_total":           8,
		"dagrtad_in_flight":                      2,
		"dagrtad_draining":                       1,
		`dagrtad_cache_shard_entries{shard="1"}`: 6,
		"dagrtad_overload_shed_total":            4,
		"dagrtad_breaker_open":                   1,
		"dagrtad_hard_entries":                   1,
		"dagrtad_store_records_loaded_total":     12,
		"dagrtad_store_bytes_loaded_total":       4096,
		"dagrtad_store_tail_truncations_total":   1,
		"dagrtad_store_warm_hits_total":          3,
		"dagrtad_store_size_bytes":               8192,
		"dagrtad_response_write_errors_total":    2,
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok || got != v {
			t.Errorf("sample %s = %v (present=%v), want %v", k, got, ok, v)
		}
	}
}

// TestRenderMetricsMinimal: without resilience or a store, the optional
// families are absent and the output still validates.
func TestRenderMetricsMinimal(t *testing.T) {
	samples := parsePromText(t, renderMetrics(statsResponse{
		Stats: service.Stats{ShardEntries: []int{0}},
	}))
	for _, absent := range []string{
		"dagrtad_overload_shed_total", "dagrtad_breaker_open",
		"dagrtad_hard_entries", "dagrtad_store_appends_total",
	} {
		if _, ok := samples[absent]; ok {
			t.Errorf("metric %s present without its subsystem", absent)
		}
	}
	if _, ok := samples["dagrtad_requests_total"]; !ok {
		t.Error("core counter missing")
	}
}

// TestMetricsEndpoint scrapes a live daemon and validates the exposition
// plus the advertised content type.
func TestMetricsEndpoint(t *testing.T) {
	base := startDaemon(t)
	for range 2 {
		if _, body := post(t, base+"/v1/analyze", chainTask(t)); len(body) == 0 {
			t.Fatal("analyze returned empty body")
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, string(raw))
	if samples["dagrtad_requests_total"] < 1 {
		t.Fatalf("requests_total = %v after one request", samples["dagrtad_requests_total"])
	}
	if samples["dagrtad_executions_total"] != 1 {
		t.Fatalf("executions_total = %v, want 1", samples["dagrtad_executions_total"])
	}
	if got := samples["dagrtad_body_memo_hits_total"]; got != 1 {
		t.Fatalf("body_memo_hits_total = %v after a byte-identical repeat, want 1", got)
	}
}
