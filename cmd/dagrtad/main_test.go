package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	hetrta "repro"
	"repro/internal/resilience/faultinject"
	"repro/internal/taskgen"
)

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRe = regexp.MustCompile(`listening on ([^ ]+)`)

// daemonHandle is a launched daemon the test controls directly: cancel
// triggers shutdown, done carries the exit code, out the daemon's stdout.
type daemonHandle struct {
	base   string
	cancel context.CancelFunc
	done   chan int
	out    *syncBuffer
}

// launchDaemon runs the real daemon main loop on an ephemeral port
// (optionally with a fault injector armed) and hands the caller control
// over shutdown. Most tests want startDaemon, which registers a
// clean-exit cleanup.
func launchDaemon(t *testing.T, inj *faultinject.Injector, args ...string) *daemonHandle {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	h := &daemonHandle{cancel: cancel, done: make(chan int, 1), out: &syncBuffer{}}
	go func() {
		h.done <- runWith(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), h.out, os.Stderr, inj)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRe.FindStringSubmatch(h.out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case code := <-h.done:
			t.Fatalf("daemon exited early with code %d: %s", code, h.out.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address: %q", h.out.String())
	}
	h.base = "http://" + addr
	return h
}

// startDaemon runs the daemon and returns its base URL; shutdown (clean,
// exit 0) is checked in cleanup.
func startDaemon(t *testing.T, args ...string) string {
	return startDaemonInj(t, nil, args...)
}

// startDaemonInj is startDaemon with a fault injector armed.
func startDaemonInj(t *testing.T, inj *faultinject.Injector, args ...string) string {
	t.Helper()
	h := launchDaemon(t, inj, args...)
	t.Cleanup(func() {
		h.cancel()
		select {
		case code := <-h.done:
			if code != 0 {
				t.Errorf("daemon exited with code %d", code)
			}
		case <-time.After(15 * time.Second):
			t.Error("daemon did not shut down within the grace period")
		}
	})
	return h.base
}

func taskJSON(t *testing.T, build func(g *hetrta.Graph)) []byte {
	t.Helper()
	g := hetrta.NewGraph()
	build(g)
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func chainTask(t *testing.T) []byte {
	return taskJSON(t, func(g *hetrta.Graph) {
		load := g.AddNode("load", 2, hetrta.Host)
		kern := g.AddNode("kernel", 8, hetrta.Offload)
		post := g.AddNode("post", 3, hetrta.Host)
		g.MustAddEdge(load, kern)
		g.MustAddEdge(kern, post)
	})
}

// relabeledChainTask is chainTask with node IDs assigned in a different
// order — isomorphic, so it must share chainTask's cache entry.
func relabeledChainTask(t *testing.T) []byte {
	return taskJSON(t, func(g *hetrta.Graph) {
		post := g.AddNode("post", 3, hetrta.Host)
		kern := g.AddNode("kernel", 8, hetrta.Offload)
		load := g.AddNode("load", 2, hetrta.Host)
		g.MustAddEdge(load, kern)
		g.MustAddEdge(kern, post)
	})
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getStats(t *testing.T, base string) statsResponse {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestEndToEndCacheHit is the acceptance path: same graph POSTed twice,
// second response is a cache hit (verified via /statsz and X-Cache) and
// byte-identical to the first; an isomorphic relabeling also hits.
func TestEndToEndCacheHit(t *testing.T) {
	base := startDaemon(t)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	r1, body1 := post(t, base+"/v1/analyze", chainTask(t))
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first analyze = %d: %s", r1.StatusCode, body1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	if fp := r1.Header.Get("X-Fingerprint"); len(fp) != 64 {
		t.Fatalf("X-Fingerprint = %q, want 64 hex chars", fp)
	}

	r2, body2 := post(t, base+"/v1/analyze", chainTask(t))
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second analyze = %d", r2.StatusCode)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit not byte-identical:\n%s\n%s", body1, body2)
	}

	r3, body3 := post(t, base+"/v1/analyze", relabeledChainTask(t))
	if got := r3.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("relabeled X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("relabeled graph served different bytes")
	}
	if r1.Header.Get("X-Fingerprint") != r3.Header.Get("X-Fingerprint") {
		t.Fatal("relabeled graph got a different fingerprint")
	}

	st := getStats(t, base)
	if st.Hits != 2 || st.Misses != 1 || st.Executions != 1 || st.Entries != 1 {
		t.Fatalf("statsz = %+v, want 2 hits / 1 miss / 1 execution / 1 entry", st)
	}

	// The report must actually decode and carry the configured bounds.
	var rep hetrta.Report
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.BoundValue("rhet"); !ok {
		t.Fatalf("report carries no rhet bound: %s", body1)
	}
}

func TestBatchEndpoint(t *testing.T) {
	base := startDaemon(t)

	req := map[string]any{"graphs": []json.RawMessage{
		chainTask(t),
		json.RawMessage(`{"nodes":[{"kind":"bogus"}]}`), // per-item decode error
		chainTask(t), // duplicate: coalesces with slot 0
	}}
	body, _ := json.Marshal(req)
	resp, data := post(t, base+"/v1/analyze/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Reports []json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(out.Reports))
	}
	if !bytes.Equal(out.Reports[0], out.Reports[2]) {
		t.Fatal("duplicate batch slots served different bytes")
	}
	var errRep hetrta.Report
	if err := json.Unmarshal(out.Reports[1], &errRep); err != nil {
		t.Fatal(err)
	}
	if errRep.Err == "" || !strings.Contains(errRep.Err, "unknown kind") {
		t.Fatalf("slot 1 error = %q, want the decode error", errRep.Err)
	}
	st := getStats(t, base)
	if st.Executions != 1 {
		t.Fatalf("executions = %d, want 1 (duplicate coalesced, bad slot never analyzed)", st.Executions)
	}
	if st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
}

// TestBatchBodyVerbatim: a batch answer is its report bodies joined
// verbatim, byte for byte what encoding the slots with json.Encoder gives,
// sent with a Content-Length. The batch holds a fresh miss, a resident
// hit, a store hit (evicted from the one-entry cache, answered from the
// log), a degraded report, a decode error and an analysis error; the hit
// and miss slots also match the single-graph answers for their graphs.
func TestBatchBodyVerbatim(t *testing.T) {
	base := startDaemon(t, "-store", filepath.Join(t.TempDir(), "cache.log"), "-cache", "1", "-cache-shards", "1",
		"-parallel", "1", "-platform", "2+1", "-exact", "-budget", "1")
	// "stored" goes first, so "resident" evicts it from the one-entry
	// cache into the log; the reverse order would make both store hits.
	single := map[string][]byte{}
	for _, c := range []struct {
		name string
		g    []byte
	}{{"stored", chainTask(t)}, {"resident", hostPairTask(t)}} {
		resp, data := post(t, base+"/v1/analyze", c.g)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", c.name, resp.StatusCode, data)
		}
		single[c.name] = data
	}
	warmBefore := getStats(t, base).Store.WarmHits
	slots := []json.RawMessage{
		hostPairTask(t),      // resident hit
		chainTask(t),         // store hit
		hostChainTaskW(t, 7), // miss
		parallel3Task(t),     // degraded
		json.RawMessage(`{"nodes":[{"kind":"bogus"}]}`),                            // decode error
		json.RawMessage(`{"nodes":[{"wcet":1},{"wcet":2}],"edges":[[0,1],[1,0]]}`), // analysis error
	}
	req, err := json.Marshal(map[string]any{"graphs": slots})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, base+"/v1/analyze/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(data)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %q, Transfer-Encoding %v, body %d bytes", got, resp.TransferEncoding, len(data))
	}
	if got := resp.Header.Get("X-Degraded-Count"); got != "1" {
		t.Errorf("X-Degraded-Count = %q, want 1", got)
	}
	if got := getStats(t, base).Store.WarmHits; got != warmBefore+1 {
		t.Errorf("store hits %d -> %d, want one more", warmBefore, got)
	}
	var out struct {
		Reports []json.RawMessage `json:"reports"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	var encoded bytes.Buffer
	if err := json.NewEncoder(&encoded).Encode(out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, encoded.Bytes()) {
		t.Fatalf("batch bytes differ from the encoder's:\n got %s\nwant %s", data, encoded.Bytes())
	}
	if len(out.Reports) != len(slots) {
		t.Fatalf("got %d reports, want %d", len(out.Reports), len(slots))
	}
	if !bytes.Equal(out.Reports[0], single["resident"]) || !bytes.Equal(out.Reports[1], single["stored"]) {
		t.Errorf("hit slots differ from the single-graph answers:\n%s\n%s", out.Reports[0], out.Reports[1])
	}
	for i, want := range []string{"", "", "", "", "unknown kind", "cycl"} {
		var rep hetrta.Report
		if err := json.Unmarshal(out.Reports[i], &rep); err != nil {
			t.Fatal(err)
		}
		if want == "" && rep.Err != "" || want != "" && !strings.Contains(rep.Err, want) {
			t.Errorf("slot %d error %q, want %q", i, rep.Err, want)
		}
	}
	var degraded hetrta.Report
	if err := json.Unmarshal(out.Reports[3], &degraded); err != nil || !degraded.Degraded {
		t.Errorf("slot 3 not degraded (%v): %s", err, out.Reports[3])
	}
	// The miss was evicted by the slot after it; its re-analysis must
	// serve the bytes the batch did.
	if resp, again := post(t, base+"/v1/analyze", slots[2]); resp.StatusCode != http.StatusOK || !bytes.Equal(again, out.Reports[2]) {
		t.Errorf("miss slot differs from the single-graph answer (%d):\n got %s\nwant %s", resp.StatusCode, out.Reports[2], again)
	}
}

func TestBadRequests(t *testing.T) {
	base := startDaemon(t)

	resp, _ := post(t, base+"/v1/analyze", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid JSON = %d, want 400", resp.StatusCode)
	}

	// Cyclic graphs fail analysis, not decoding.
	cyclic := []byte(`{"nodes":[{"wcet":1},{"wcet":2}],"edges":[[0,1],[1,0]]}`)
	resp, data := post(t, base+"/v1/analyze", cyclic)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("cyclic graph = %d (%s), want 422", resp.StatusCode, data)
	}

	r, err := http.Get(base + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET analyze = %d, want 405", r.StatusCode)
	}
}

// hardTask returns a task whose exact search would run far longer than the
// test timeouts, so only cancellation can end it quickly.
func hardTask(t *testing.T) []byte {
	t.Helper()
	// Small(24,28) seed 1 on an m=2 platform: the branch-and-bound needs
	// well beyond 3s uncancelled (probed), so tests pairing this task with
	// "-platform 2+1" only finish quickly if cancellation works.
	g, _, _, err := taskgen.MustNew(taskgen.Small(24, 28), 1).HetTask(0.15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRequestTimeoutMapsToGatewayTimeout: the per-request timeout must
// cancel the pipeline (inside the exact oracle) and map to 504.
func TestRequestTimeoutMapsToGatewayTimeout(t *testing.T) {
	base := startDaemon(t, "-platform", "2+1",
		"-exact", "-budget", fmt.Sprint(int64(1)<<40), "-exact-poll", "64",
		"-request-timeout", "100ms")
	startedAt := time.Now()
	resp, data := post(t, base+"/v1/analyze", hardTask(t))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, data)
	}
	if elapsed := time.Since(startedAt); elapsed > 10*time.Second {
		t.Fatalf("timeout took %v, cancellation did not reach the oracle", elapsed)
	}
	// The timed-out analysis must not have been cached.
	if st := getStats(t, base); st.Entries != 0 {
		t.Fatalf("timed-out analysis cached: %+v", st)
	}
}

// TestCancelledClientAbortsExactOracle: dropping the HTTP request must
// propagate through the request context into the exact oracle's poll loop;
// /statsz shows the in-flight execution draining promptly even though its
// budget allowed a far longer search.
func TestCancelledClientAbortsExactOracle(t *testing.T) {
	base := startDaemon(t, "-platform", "2+1",
		"-exact", "-budget", fmt.Sprint(int64(1)<<40), "-exact-poll", "64",
		"-request-timeout", "10m")

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", bytes.NewReader(hardTask(t)))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with %d before cancellation", resp.StatusCode)
		}
		errCh <- err
	}()

	// Let the request reach the oracle, then hang up.
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, base).InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the analyzer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client err = %v, want context cancellation", err)
	}

	// The server-side execution must abort within the poll interval, not
	// run out its 2^40-expansion budget.
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := getStats(t, base)
		if st.InFlight == 0 {
			if st.Entries != 0 {
				t.Fatalf("aborted analysis was cached: %+v", st)
			}
			if st.Failures == 0 {
				t.Fatalf("abort not recorded as failure: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("oracle still running after client hang-up: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestExactServedAsSerialSearchProves: a daemon started without
// -exact-parallel serves the exact result of the serial search, whatever
// GOMAXPROCS is. Graph 114 of the analyze-miss population (Small(8,24)
// seed 2, c_off 0.15) on 4+1 is proven optimal at 464 after 9,880
// expansions, just inside the 10k budget. A search split across two
// workers used to run out of budget on it and serve the bracket
// [450, 481] instead.
func TestExactServedAsSerialSearchProves(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Small(8, 24), 2)
	var body []byte
	for i := 0; i <= 114; i++ {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			t.Fatal(err)
		}
		if i == 114 {
			if body, err = json.Marshal(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := startDaemon(t, "-platform", "4+1", "-exact", "-budget", "10000")
	resp, data := post(t, base+"/v1/analyze", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", resp.StatusCode, data)
	}
	var rep struct {
		Exact    *hetrta.ExactReport `json:"exact"`
		Degraded bool                `json:"degraded"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	want := hetrta.ExactReport{Makespan: 464, Status: "optimal", LowerBound: 464, Expansions: 9880}
	if rep.Exact == nil || *rep.Exact != want || rep.Degraded {
		t.Fatalf("exact = %+v, degraded = %t; want %+v, not degraded", rep.Exact, rep.Degraded, want)
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-platform", "bogus"},
		{"-bounds", "nope"},
		{"-bounds", ""},
		{"-budget", "100"},    // requires -exact
		{"-exact-poll", "64"}, // requires -exact
		{"-exact", "-budget", "-1"},
		{"-exact", "-exact-poll", "-1"},
		{"-exact-slice", "50ms"}, // requires -exact
		{"-exact", "-exact-slice", "-1s"},
		{"-exact-parallel", "4"}, // requires -exact
		{"-exact", "-exact-parallel", "-1"},
	} {
		out := &syncBuffer{}
		if code := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, args...), out, out); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// admitBody renders an /v1/admit request; reorder permutes both the task
// order and the member graphs' node insertion order, producing an
// isomorphic taskset with the same canonical fingerprint.
func admitBody(t *testing.T, reorder bool) []byte {
	t.Helper()
	type task struct {
		Graph    json.RawMessage `json:"graph"`
		Period   int64           `json:"period"`
		Deadline int64           `json:"deadline"`
		Jitter   int64           `json:"jitter,omitempty"`
	}
	g1, g2 := chainTask(t), taskJSON(t, func(g *hetrta.Graph) {
		a := g.AddNode("a", 4, hetrta.Host)
		b := g.AddNode("b", 6, hetrta.Host)
		g.MustAddEdge(a, b)
	})
	if reorder {
		g1 = relabeledChainTask(t)
	}
	tasks := []task{
		{Graph: g1, Period: 60, Deadline: 50},
		{Graph: g2, Period: 80, Deadline: 70, Jitter: 3},
	}
	if reorder {
		tasks[0], tasks[1] = tasks[1], tasks[0]
	}
	b, err := json.Marshal(map[string]any{"tasks": tasks})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdmitEndToEnd is the admission acceptance path: POST /v1/admit, then
// POST a permuted-but-isomorphic taskset and verify — via /statsz hit
// counters and X-Cache — that it was served the byte-identical cached
// response.
func TestAdmitEndToEnd(t *testing.T) {
	base := startDaemon(t, "-platform", "4+1", "-bounds", "rhom,rhet,typed-rhom")

	resp1, body1 := post(t, base+"/v1/admit", admitBody(t, false))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first admit: %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first admit X-Cache = %q, want miss", got)
	}
	fp1 := resp1.Header.Get("X-Taskset-Fingerprint")
	if fp1 == "" {
		t.Fatal("missing X-Taskset-Fingerprint")
	}
	var rep struct {
		Admitted bool `json:"admitted"`
		Policies []struct {
			Policy   string `json:"policy"`
			Admitted bool   `json:"admitted"`
		} `json:"policies"`
	}
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Admitted || len(rep.Policies) != 2 {
		t.Fatalf("unexpected admit report: %s", body1)
	}

	before := getStats(t, base)
	resp2, body2 := post(t, base+"/v1/admit", admitBody(t, true))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second admit: %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("permuted admit X-Cache = %q, want hit", got)
	}
	if got := resp2.Header.Get("X-Taskset-Fingerprint"); got != fp1 {
		t.Fatalf("fingerprint changed across permutation: %q vs %q", got, fp1)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached admit response not byte-identical:\n%s\n%s", body1, body2)
	}
	after := getStats(t, base)
	if after.Hits != before.Hits+1 {
		t.Fatalf("hit counter did not advance: before %+v after %+v", before, after)
	}
}

// TestAdmitBadRequests covers the admission failure paths: malformed JSON,
// oversized tasksets, and model-invalid tasksets.
func TestAdmitBadRequests(t *testing.T) {
	base := startDaemon(t, "-max-batch", "2")

	resp, body := post(t, base+"/v1/admit", []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %d: %s", resp.StatusCode, body)
	}

	null := `{"graph":null,"period":0,"deadline":0}`
	resp, body = post(t, base+"/v1/admit", []byte(`{"tasks":[`+null+`,`+null+`,`+null+`]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized taskset: %d: %s", resp.StatusCode, body)
	}

	// Deadline > period: decodes fine, fails model validation → 400 (an
	// input-shaped error, named after the offending field).
	bad, err := json.Marshal(map[string]any{"tasks": []map[string]any{
		{"graph": json.RawMessage(chainTask(t)), "period": 10, "deadline": 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, base+"/v1/admit", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid model: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "constrained deadline") {
		t.Fatalf("unexpected error body: %s", body)
	}

	// Non-positive period: previously flowed garbage into the policy
	// iterations; now a 400 naming the field.
	badPeriod, err := json.Marshal(map[string]any{"tasks": []map[string]any{
		{"graph": json.RawMessage(chainTask(t)), "period": 0, "deadline": 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, base+"/v1/admit", badPeriod)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-positive period: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "period") {
		t.Fatalf("unexpected error body: %s", body)
	}

	// Negative jitter → 400 naming the field.
	badJitter, err := json.Marshal(map[string]any{"tasks": []map[string]any{
		{"graph": json.RawMessage(chainTask(t)), "period": 10, "deadline": 10, "jitter": -1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, base+"/v1/admit", badJitter)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative jitter: %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "jitter") {
		t.Fatalf("unexpected error body: %s", body)
	}
}

// TestReadAllBuffer: a body of declared length arrives in one buffer of
// that size; a declared length over bodyBufCap reserves only the cap, and
// an undeclared or understated one still reads the whole body.
func TestReadAllBuffer(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 27_000)
	for _, tc := range []struct {
		declared int64
		allocs   float64
		maxCap   int
	}{
		{int64(len(body)), 1, len(body) + 1},
		{1 << 30, 1, bodyBufCap},
		{-1, -1, -1},
		{10, -1, -1},
	} {
		var got []byte
		r := bytes.NewReader(body)
		allocs := testing.AllocsPerRun(10, func() {
			r.Reset(body)
			var err error
			if got, err = readAll(r, tc.declared); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(got, body) {
			t.Fatalf("declared %d: read %d bytes, want %d", tc.declared, len(got), len(body))
		}
		if tc.allocs >= 0 && allocs != tc.allocs {
			t.Errorf("declared %d: %v allocations, want %v", tc.declared, allocs, tc.allocs)
		}
		if tc.maxCap >= 0 && cap(got) > tc.maxCap {
			t.Errorf("declared %d: buffer capacity %d, want at most %d", tc.declared, cap(got), tc.maxCap)
		}
	}
	empty, err := readAll(bytes.NewReader(nil), 1<<30)
	if err != nil || len(empty) != 0 || cap(empty) > bodyBufCap {
		t.Fatalf("empty body declared 1 GiB: len %d cap %d err %v", len(empty), cap(empty), err)
	}
}
