// End-to-end tests for POST /v1/admit/delta (incremental admission) and
// the writeAnalysisError classification fix: infrastructure failures are
// 500, analysis failures are 422, input-shaped failures 400, cold delta
// bases 404.
package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hetrta "repro"
	"repro/internal/resilience/faultinject"
)

// The three tasks the delta tests shuffle. task1 and task2 are exactly the
// members of admitBody(t, false); task3 is the newcomer. Building them as
// model objects (not JSON) lets the test compute wire digests with the
// same taskset.Digest the server uses.
func deltaTask1() hetrta.SporadicTask {
	g := hetrta.NewGraph()
	load := g.AddNode("load", 2, hetrta.Host)
	kern := g.AddNode("kernel", 8, hetrta.Offload)
	post := g.AddNode("post", 3, hetrta.Host)
	g.MustAddEdge(load, kern)
	g.MustAddEdge(kern, post)
	return hetrta.SporadicTask{G: g, Period: 60, Deadline: 50}
}

func deltaTask2() hetrta.SporadicTask {
	g := hetrta.NewGraph()
	a := g.AddNode("a", 4, hetrta.Host)
	b := g.AddNode("b", 6, hetrta.Host)
	g.MustAddEdge(a, b)
	return hetrta.SporadicTask{G: g, Period: 80, Deadline: 70, Jitter: 3}
}

func deltaTask3() hetrta.SporadicTask {
	g := hetrta.NewGraph()
	in := g.AddNode("in", 3, hetrta.Host)
	kern := g.AddNode("kern", 5, hetrta.Offload)
	out := g.AddNode("out", 2, hetrta.Host)
	g.MustAddEdge(in, kern)
	g.MustAddEdge(kern, out)
	return hetrta.SporadicTask{G: g, Period: 90, Deadline: 80}
}

func wireTask(t *testing.T, st hetrta.SporadicTask) map[string]any {
	t.Helper()
	raw, err := json.Marshal(st.G)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]any{"graph": json.RawMessage(raw), "period": st.Period, "deadline": st.Deadline}
	if st.Jitter != 0 {
		m["jitter"] = st.Jitter
	}
	return m
}

func wholeSetBody(t *testing.T, tasks ...hetrta.SporadicTask) []byte {
	t.Helper()
	wire := make([]map[string]any, len(tasks))
	for i, st := range tasks {
		wire[i] = wireTask(t, st)
	}
	b, err := json.Marshal(map[string]any{"tasks": wire})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func deltaBody(t *testing.T, base string, body map[string]any) []byte {
	t.Helper()
	body["base"] = base
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdmitDeltaEndToEnd is the delta acceptance path: warm a base via
// /v1/admit, apply add+remove via /v1/admit/delta, and verify — against a
// whole-set /v1/admit of the resulting set, /statsz eval counters, and a
// golden file — that the delta response is the byte-identical full
// AdmitReport of the resulting taskset.
func TestAdmitDeltaEndToEnd(t *testing.T) {
	base := startDaemon(t, "-platform", "4+1", "-bounds", "rhom,rhet,typed-rhom")
	t1, t2, t3 := deltaTask1(), deltaTask2(), deltaTask3()

	// Warm the base set {t1, t2}.
	resp, body := post(t, base+"/v1/admit", admitBody(t, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base admit: %d: %s", resp.StatusCode, body)
	}
	baseFP := resp.Header.Get("X-Taskset-Fingerprint")
	if baseFP == "" {
		t.Fatal("missing base fingerprint")
	}

	// Delta: remove t1, add t3 → resulting set {t2, t3}.
	before := getStats(t, base)
	dresp, dbody := post(t, base+"/v1/admit/delta", deltaBody(t, baseFP, map[string]any{
		"add":    []map[string]any{wireTask(t, t3)},
		"remove": []string{t1.Digest().String()},
	}))
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta admit: %d: %s", dresp.StatusCode, dbody)
	}
	if got := dresp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("delta X-Cache = %q, want miss", got)
	}
	deltaFP := dresp.Header.Get("X-Taskset-Fingerprint")
	if deltaFP == "" || deltaFP == baseFP {
		t.Fatalf("delta fingerprint %q, want a new resulting-set fingerprint", deltaFP)
	}

	// t2's eval must have been reused, t3's freshly prepared.
	after := getStats(t, base)
	if after.EvalHits != before.EvalHits+1 {
		t.Fatalf("delta did not reuse the surviving task's eval: before %+v after %+v", before, after)
	}
	if after.EvalMisses != before.EvalMisses+1 {
		t.Fatalf("delta should prepare exactly the added task: before %+v after %+v", before, after)
	}

	// Byte-identity: whole-set admit of {t2, t3} hits the delta's cache
	// entry and serves the same bytes under the same fingerprint.
	fresp, fbody := post(t, base+"/v1/admit", wholeSetBody(t, t2, t3))
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("whole-set admit of resulting set: %d: %s", fresp.StatusCode, fbody)
	}
	if got := fresp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("whole-set admit after delta X-Cache = %q, want hit", got)
	}
	if got := fresp.Header.Get("X-Taskset-Fingerprint"); got != deltaFP {
		t.Fatalf("fingerprints differ: delta %q vs whole-set %q", deltaFP, got)
	}
	if !bytes.Equal(dbody, fbody) {
		t.Fatalf("delta response not byte-identical to whole-set admit:\n%s\n%s", dbody, fbody)
	}

	// An empty delta against the warmed result is a pure cache hit.
	eresp, ebody := post(t, base+"/v1/admit/delta", deltaBody(t, deltaFP, map[string]any{}))
	if eresp.StatusCode != http.StatusOK || eresp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("empty delta: %d X-Cache=%q", eresp.StatusCode, eresp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(ebody, dbody) {
		t.Fatal("empty delta served different bytes")
	}

	// Golden pin: the delta response is a full AdmitReport, schema and all.
	golden := filepath.Join("testdata", "golden", "admit_delta.json")
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, dbody, "", "  "); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(pretty.Bytes())) {
		t.Fatalf("delta response drifted from golden:\n%s", pretty.Bytes())
	}
}

// TestAdmitDeltaColdBase: a fingerprint the daemon has never admitted (or
// has evicted) is a 404 telling the client to fall back to a full admit —
// not a silent full admission and not a 422.
func TestAdmitDeltaColdBase(t *testing.T) {
	base := startDaemon(t)
	cold := strings.Repeat("ab", 32)
	resp, body := post(t, base+"/v1/admit/delta", deltaBody(t, cold, map[string]any{
		"add": []map[string]any{wireTask(t, deltaTask3())},
	}))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cold base: %d (%s), want 404", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "fall back") {
		t.Fatalf("cold-base body gives no fallback guidance: %s", body)
	}
}

// TestAdmitDeltaBadRequests covers the delta decode and validation paths.
func TestAdmitDeltaBadRequests(t *testing.T) {
	base := startDaemon(t, "-max-batch", "2")

	resp, body := post(t, base+"/v1/admit/delta", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d: %s", resp.StatusCode, body)
	}

	resp, body = post(t, base+"/v1/admit/delta", deltaBody(t, "zzzz", map[string]any{}))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "base") {
		t.Fatalf("bad base fingerprint: %d: %s", resp.StatusCode, body)
	}

	// Warm a base, then reference a digest that is not in it → 400 naming
	// the digest, since the delta (not the infrastructure) is wrong.
	resp, _ = post(t, base+"/v1/admit", admitBody(t, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base admit: %d", resp.StatusCode)
	}
	fp := resp.Header.Get("X-Taskset-Fingerprint")
	resp, body = post(t, base+"/v1/admit/delta", deltaBody(t, fp, map[string]any{
		"remove": []string{deltaTask3().Digest().String()},
	}))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "not in base set") {
		t.Fatalf("unknown remove digest: %d: %s", resp.StatusCode, body)
	}

	// Edit count is bounded by -max-batch like whole-set admission.
	resp, body = post(t, base+"/v1/admit/delta", deltaBody(t, fp, map[string]any{
		"add": []map[string]any{wireTask(t, deltaTask3()), wireTask(t, deltaTask3()), wireTask(t, deltaTask3())},
	}))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "limit") {
		t.Fatalf("oversized delta: %d: %s", resp.StatusCode, body)
	}
}

// TestErrorClassification is the writeAnalysisError regression: an
// infrastructure failure inside the execution path (injected at the Exec
// seam) must surface as 500, while a genuine analysis failure of a
// well-formed input stays 422. Before the fix, both collapsed to 422.
func TestErrorClassification(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.Exec, Count: 1, Err: faultinject.ErrInjected})
	base := startDaemonInj(t, inj)

	resp, body := post(t, base+"/v1/analyze", chainTask(t))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected infrastructure fault: %d (%s), want 500", resp.StatusCode, body)
	}

	// The rule is exhausted: the same input now analyzes fine, proving the
	// 500 was the injected fault and the failure was never cached.
	resp, body = post(t, base+"/v1/analyze", chainTask(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after fault exhausted: %d: %s", resp.StatusCode, body)
	}

	// Contrast: an analysis failure of a decodable input is the client's
	// 422, not a 500.
	cyclic := []byte(`{"nodes":[{"wcet":1},{"wcet":2}],"edges":[[0,1],[1,0]]}`)
	resp, body = post(t, base+"/v1/analyze", cyclic)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("analysis failure: %d (%s), want 422", resp.StatusCode, body)
	}
}

// TestAdmitDeltaUpdate posts an update edit: replacing t1 by t3 in the warm
// base {t1, t2} must serve the same bytes, under the same fingerprint, as
// a whole-set /v1/admit of {t2, t3} on a daemon that never saw the delta.
func TestAdmitDeltaUpdate(t *testing.T) {
	args := []string{"-platform", "4+1", "-bounds", "rhom,rhet,typed-rhom"}
	base, fresh := startDaemon(t, args...), startDaemon(t, args...)
	t1, t2, t3 := deltaTask1(), deltaTask2(), deltaTask3()

	resp, body := post(t, base+"/v1/admit", admitBody(t, false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base admit: %d: %s", resp.StatusCode, body)
	}
	baseFP := resp.Header.Get("X-Taskset-Fingerprint")
	dresp, dbody := post(t, base+"/v1/admit/delta", deltaBody(t, baseFP, map[string]any{
		"update": []map[string]any{{"old": t1.Digest().String(), "task": wireTask(t, t3)}},
	}))
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("update delta: %d: %s", dresp.StatusCode, dbody)
	}
	if got := dresp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("update delta X-Cache = %q, want miss", got)
	}

	fresp, fbody := post(t, fresh+"/v1/admit", wholeSetBody(t, t2, t3))
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("whole-set admit: %d: %s", fresp.StatusCode, fbody)
	}
	if got, want := dresp.Header.Get("X-Taskset-Fingerprint"), fresp.Header.Get("X-Taskset-Fingerprint"); got != want {
		t.Fatalf("update fingerprint %q, whole-set %q", got, want)
	}
	if !bytes.Equal(dbody, fbody) {
		t.Fatalf("update response not byte-identical to whole-set admit:\n%s\n%s", dbody, fbody)
	}

	// Updating a digest the base does not hold is the delta's fault: 400.
	resp, body = post(t, base+"/v1/admit/delta", deltaBody(t, baseFP, map[string]any{
		"update": []map[string]any{{"old": t3.Digest().String(), "task": wireTask(t, t1)}},
	}))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "not in base set") {
		t.Fatalf("update of an unknown digest: %d: %s", resp.StatusCode, body)
	}
}
