// End-to-end tests for the durable serving tier: restart-with-store warm
// starts (byte-identical bodies, zero recomputation, delta bases that
// survive the restart), torn-tail boot recovery, the /v1/warmup bulk-load
// endpoint, and the X-Cache header contract across all three analysis
// endpoints.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	hetrta "repro"
	"repro/internal/store"
)

// stopDaemon shuts a launchDaemon-started daemon down and asserts a
// clean exit; the deferred store Close inside runWith flushes the log
// before the exit code is delivered.
func stopDaemon(t *testing.T, h *daemonHandle) {
	t.Helper()
	h.cancel()
	select {
	case code := <-h.done:
		if code != 0 {
			t.Fatalf("daemon exited with code %d: %s", code, h.out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not shut down: %s", h.out.String())
	}
}

// storeArgs is the flag set shared by the restart tests: admission bounds
// matching admitBody plus a disk store at path.
func storeArgs(path string) []string {
	return []string{"-store", path, "-platform", "4+1", "-bounds", "rhom,rhet,typed-rhom"}
}

// TestStoreRestartE2E is the acceptance e2e: serve an analysis and an
// admission, restart the daemon on the same log, and require warm-started
// byte-identical responses with zero analyzer executions, a delta
// admission that finds its pre-restart base (no 404), and a /metrics page
// that validates as Prometheus text with the store families present.
func TestStoreRestartE2E(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "cache.log")

	h1 := launchDaemon(t, nil, storeArgs(logPath)...)
	resp, aBody1 := post(t, h1.base+"/v1/analyze", chainTask(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d: %s", resp.StatusCode, aBody1)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold analyze X-Cache = %q, want miss", got)
	}
	resp, mBody1 := post(t, h1.base+"/v1/admit", admitBody(t, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit: %d: %s", resp.StatusCode, mBody1)
	}
	baseFP := resp.Header.Get("X-Taskset-Fingerprint")
	if baseFP == "" {
		t.Fatal("missing X-Taskset-Fingerprint")
	}
	stopDaemon(t, h1)

	// Restart over the same log.
	h2 := launchDaemon(t, nil, storeArgs(logPath)...)
	defer stopDaemon(t, h2)

	st := getStats(t, h2.base)
	if st.Store == nil {
		t.Fatal("restarted daemon reports no store stats")
	}
	if st.Store.WarmLoaded == 0 {
		t.Fatalf("warm start loaded nothing: %+v", st.Store)
	}

	// Previously served fingerprints: byte-identical hits, no recomputation.
	resp, aBody2 := post(t, h2.base+"/v1/analyze", chainTask(t))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm analyze: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(aBody1, aBody2) {
		t.Fatalf("warm analyze body differs:\n%s\n%s", aBody1, aBody2)
	}
	resp, mBody2 := post(t, h2.base+"/v1/admit", admitBody(t, true)) // permuted isomorph
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm admit: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(mBody1, mBody2) {
		t.Fatalf("warm admit body differs:\n%s\n%s", mBody1, mBody2)
	}
	if got := resp.Header.Get("X-Taskset-Fingerprint"); got != baseFP {
		t.Fatalf("warm admit fingerprint %q != pre-restart %q", got, baseFP)
	}
	if st := getStats(t, h2.base); st.Executions != 0 {
		t.Fatalf("warm-started daemon executed %d analyses, want 0", st.Executions)
	}

	// Delta admission anchors on the warm-loaded base: 200, not 404.
	dresp, dbody := post(t, h2.base+"/v1/admit/delta", deltaBody(t, baseFP, map[string]any{
		"add": []map[string]any{wireTask(t, deltaTask3())},
	}))
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta on warm base: %d: %s", dresp.StatusCode, dbody)
	}
	if got := dresp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold delta X-Cache = %q, want miss", got)
	}
	if st := getStats(t, h2.base); st.Executions != 1 {
		t.Fatalf("executions after delta = %d, want exactly the delta run", st.Executions)
	}

	// /metrics validates and exposes the store tier.
	mresp, err := http.Get(h2.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, string(raw))
	if samples["dagrtad_store_warm_loaded_total"] == 0 {
		t.Fatal("metrics missing warm-load evidence")
	}
	if samples["dagrtad_store_records_loaded_total"] == 0 {
		t.Fatal("metrics missing boot-scan evidence")
	}
	if samples["dagrtad_executions_total"] != 1 {
		t.Fatalf("executions_total = %v, want 1", samples["dagrtad_executions_total"])
	}
}

// TestStoreTornTailBootE2E: a crash-truncated final record is dropped and
// counted at boot — never a boot failure — and records before the tear
// still serve warm hits.
func TestStoreTornTailBootE2E(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "cache.log")

	h1 := launchDaemon(t, nil, "-store", logPath)
	_, body1 := post(t, h1.base+"/v1/analyze", chainTask(t))
	// A second, structurally different graph: its record lands after the
	// first and is the one the tear destroys.
	second := taskJSON(t, func(g *hetrta.Graph) {
		a := g.AddNode("a", 5, hetrta.Host)
		b := g.AddNode("b", 7, hetrta.Offload)
		g.MustAddEdge(a, b)
	})
	if resp, body := post(t, h1.base+"/v1/analyze", second); resp.StatusCode != http.StatusOK {
		t.Fatalf("second analyze: %d: %s", resp.StatusCode, body)
	}
	stopDaemon(t, h1)

	info, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	base := startDaemon(t, "-store", logPath)
	st := getStats(t, base)
	if st.Store == nil || st.Store.TailTruncations != 1 {
		t.Fatalf("torn tail not counted: %+v", st.Store)
	}
	resp, body2 := post(t, base+"/v1/analyze", chainTask(t))
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(body1, body2) {
		t.Fatalf("pre-tear record lost (X-Cache=%q)", resp.Header.Get("X-Cache"))
	}
}

// logGeneration reads the generation stamp from a store log's header
// (magic, little-endian uint16 length, stamp).
func logGeneration(t *testing.T, raw []byte) string {
	t.Helper()
	if len(raw) < 10 {
		t.Fatalf("store log of %d bytes has no header", len(raw))
	}
	n := int(binary.LittleEndian.Uint16(raw[8:10]))
	return string(raw[10 : 10+n])
}

// writeStaleLog replaces the log at path with one stamped gen that holds a
// single report record: stale bytes under key.
func writeStaleLog(t *testing.T, path, gen string, kind byte, key string, stale []byte) {
	t.Helper()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Path: path, Generation: gen})
	if err != nil {
		t.Fatal(err)
	}
	st.Append(kind, key, stale)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreOldVersionLogE2E boots a daemon on a log written under an older
// AlgorithmVersion. The log holds stale bytes under the very key the
// current binary looks up, so only the generation stamp keeps them from
// being served: the boot must discard the log, count one invalidation,
// and answer with freshly computed bytes. A control boot under the
// current stamp shows that the same record would otherwise be served.
func TestStoreOldVersionLogE2E(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "cache.log")
	second := taskJSON(t, func(g *hetrta.Graph) {
		a := g.AddNode("a", 5, hetrta.Host)
		b := g.AddNode("b", 7, hetrta.Offload)
		g.MustAddEdge(a, b)
	})

	h1 := launchDaemon(t, nil, "-store", logPath)
	_, fresh := post(t, h1.base+"/v1/analyze", chainTask(t))
	_, stale := post(t, h1.base+"/v1/analyze", second)
	stopDaemon(t, h1)
	if bytes.Equal(fresh, stale) {
		t.Fatal("the two analyses must differ")
	}

	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	gen := logGeneration(t, raw)
	var key string
	var kind byte
	if _, err := store.ScanStream(bytes.NewReader(raw), gen, func(rec store.Record) error {
		if bytes.Equal(rec.Value, fresh) {
			key, kind = rec.Key, rec.Kind
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("no record holds the analysis body")
	}
	// The generation a binary from before the version stamp wrote.
	oldGen, ok := strings.CutPrefix(gen, fmt.Sprintf("v=%d;", hetrta.AlgorithmVersion))
	if !ok {
		t.Fatalf("generation %q does not lead with AlgorithmVersion %d", gen, hetrta.AlgorithmVersion)
	}

	// Control: under the current stamp the stale record is served.
	writeStaleLog(t, logPath, gen, kind, key, stale)
	h2 := launchDaemon(t, nil, "-store", logPath)
	resp, body := post(t, h2.base+"/v1/analyze", chainTask(t))
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, stale) {
		stopDaemon(t, h2)
		t.Fatalf("control boot did not serve the planted record (X-Cache %q)", resp.Header.Get("X-Cache"))
	}
	stopDaemon(t, h2)

	writeStaleLog(t, logPath, oldGen, kind, key, stale)
	h3 := launchDaemon(t, nil, "-store", logPath)
	defer stopDaemon(t, h3)
	st := getStats(t, h3.base)
	if st.Store == nil || st.Store.Invalidations != 1 {
		t.Fatalf("old-version log not invalidated exactly once: %+v", st.Store)
	}
	resp, body = post(t, h3.base+"/v1/analyze", chainTask(t))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("analyze after invalidation: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, fresh) {
		t.Fatalf("served bytes are not the fresh analysis:\n%s\nwant:\n%s", body, fresh)
	}
	if st := getStats(t, h3.base); st.Executions != 1 {
		t.Fatalf("executions = %d, want 1 fresh analysis", st.Executions)
	}
}

// TestWarmupEndToEnd: one daemon's log POSTed to a peer's /v1/warmup
// loads the peer's cache; a peer under a different platform rejects the
// stream with 409; garbage is a 400.
func TestWarmupEndToEnd(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "cache.log")

	hA := launchDaemon(t, nil, storeArgs(logPath)...)
	_, aBody := post(t, hA.base+"/v1/analyze", chainTask(t))
	resp, _ := post(t, hA.base+"/v1/admit", admitBody(t, false))
	baseFP := resp.Header.Get("X-Taskset-Fingerprint")
	stopDaemon(t, hA)
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Peer B: same configuration, no store of its own.
	bBase := startDaemon(t, "-platform", "4+1", "-bounds", "rhom,rhet,typed-rhom")
	wresp, wbody := post(t, bBase+"/v1/warmup", logBytes)
	if wresp.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d: %s", wresp.StatusCode, wbody)
	}
	var ws struct {
		Records int  `json:"records"`
		Loaded  int  `json:"loaded"`
		Skipped int  `json:"skipped"`
		Trunc   bool `json:"truncated"`
	}
	if err := json.Unmarshal(wbody, &ws); err != nil {
		t.Fatalf("warmup summary: %v: %s", err, wbody)
	}
	if ws.Loaded == 0 || ws.Skipped != 0 || ws.Trunc {
		t.Fatalf("warmup summary = %+v", ws)
	}
	resp, body := post(t, bBase+"/v1/analyze", chainTask(t))
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(aBody, body) {
		t.Fatalf("warmed peer not serving identical hit (X-Cache=%q)", resp.Header.Get("X-Cache"))
	}
	// The warmed base anchors delta admission on the peer too.
	dresp, dbody := post(t, bBase+"/v1/admit/delta", deltaBody(t, baseFP, map[string]any{
		"add": []map[string]any{wireTask(t, deltaTask3())},
	}))
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta on warmed peer: %d: %s", dresp.StatusCode, dbody)
	}

	// Peer C: different platform → different generation → 409, nothing loaded.
	cBase := startDaemon(t, "-platform", "2+1")
	cresp, cbody := post(t, cBase+"/v1/warmup", logBytes)
	if cresp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched warmup: %d: %s", cresp.StatusCode, cbody)
	}
	if st := getStats(t, cBase); st.Entries != 0 {
		t.Fatal("mismatched warmup loaded entries")
	}

	// Garbage stream: 400.
	gresp, _ := post(t, cBase+"/v1/warmup", []byte("not a store log"))
	if gresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage warmup: %d, want 400", gresp.StatusCode)
	}
}

// TestCacheHeaderContractE2E pins the documented X-Cache contract on all
// three endpoints: first service of a key is "miss" (or "shared"),
// repeats are "hit", and the header is always one of the three values.
func TestCacheHeaderContractE2E(t *testing.T) {
	base := startDaemon(t, "-platform", "4+1", "-bounds", "rhom,rhet,typed-rhom")
	valid := map[string]bool{"hit": true, "miss": true, "shared": true}
	check := func(op string, resp *http.Response, body []byte, want string) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", op, resp.StatusCode, body)
		}
		got := resp.Header.Get("X-Cache")
		if !valid[got] {
			t.Fatalf("%s: X-Cache = %q, not in the documented vocabulary", op, got)
		}
		if got != want {
			t.Fatalf("%s: X-Cache = %q, want %q", op, got, want)
		}
	}

	resp, body := post(t, base+"/v1/analyze", chainTask(t))
	check("analyze cold", resp, body, "miss")
	resp, body = post(t, base+"/v1/analyze", chainTask(t))
	check("analyze repeat", resp, body, "hit")
	resp, body = post(t, base+"/v1/analyze", relabeledChainTask(t))
	check("analyze isomorph", resp, body, "hit")

	resp, body = post(t, base+"/v1/admit", admitBody(t, false))
	check("admit cold", resp, body, "miss")
	fp := resp.Header.Get("X-Taskset-Fingerprint")
	resp, body = post(t, base+"/v1/admit", admitBody(t, true))
	check("admit isomorph", resp, body, "hit")

	delta := func() []byte {
		return deltaBody(t, fp, map[string]any{
			"add": []map[string]any{wireTask(t, deltaTask3())},
		})
	}
	resp, body = post(t, base+"/v1/admit/delta", delta())
	check("delta cold", resp, body, "miss")
	if resp.Header.Get("X-Taskset-Fingerprint") == "" {
		t.Fatal("delta response missing X-Taskset-Fingerprint")
	}
	resp, body = post(t, base+"/v1/admit/delta", delta())
	check("delta repeat", resp, body, "hit")
}
