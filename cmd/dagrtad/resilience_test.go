package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	hetrta "repro"
	"repro/internal/resilience/faultinject"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// parallel3Task is the deterministic hard instance: three independent
// WCET-3 host nodes on a 2-host platform pack to makespan 6 while the root
// lower bound is 5, so with -budget 1 the exact search exhausts its budget
// and the report degrades (exact-budget-exhausted) keeping the feasible
// bracket.
func parallel3Task(t *testing.T) []byte {
	return taskJSON(t, func(g *hetrta.Graph) {
		g.AddNode("a", 3, hetrta.Host)
		g.AddNode("b", 3, hetrta.Host)
		g.AddNode("c", 3, hetrta.Host)
	})
}

// hostPairTask is an easy instance: a serial host chain the heuristic
// schedules optimally, so the exact stage proves Optimal without a single
// expansion even under -budget 1.
func hostPairTask(t *testing.T) []byte {
	return taskJSON(t, func(g *hetrta.Graph) {
		a := g.AddNode("a", 4, hetrta.Host)
		b := g.AddNode("b", 6, hetrta.Host)
		g.MustAddEdge(a, b)
	})
}

// hostChainTaskW builds distinct (non-isomorphic) easy chains, so
// saturation tests get one execution per request instead of cache hits.
func hostChainTaskW(t *testing.T, w int64) []byte {
	return taskJSON(t, func(g *hetrta.Graph) {
		a := g.AddNode("a", w, hetrta.Host)
		b := g.AddNode("b", w+1, hetrta.Host)
		g.MustAddEdge(a, b)
	})
}

func waitInFlight(t *testing.T, base string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, base).InFlight < want {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the analyzer")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSheddingUnderSaturation saturates a capacity-1, queue-0 daemon with
// concurrent distinct analyses held open by injected oracle latency: the
// overflow must be shed with 429 + Retry-After while every accepted
// request still completes well inside -request-timeout.
func TestSheddingUnderSaturation(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.Exec, Latency: 300 * time.Millisecond})
	base := startDaemonInj(t, inj,
		"-max-concurrent", "1", "-max-queue", "0",
		"-request-timeout", "5s", "-retry-after", "2s")

	const n = 6
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = hostChainTaskW(t, int64(2+i))
	}
	type outcome struct {
		status     int
		retryAfter string
		elapsed    time.Duration
	}
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(start)}
		}(bodies[i])
	}
	wg.Wait()
	close(results)

	var ok200, shed429 int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok200++
			if r.elapsed >= 5*time.Second {
				t.Errorf("accepted request took %v, not bounded by -request-timeout", r.elapsed)
			}
		case http.StatusTooManyRequests:
			shed429++
			if r.retryAfter != "2" {
				t.Errorf("429 Retry-After = %q, want %q", r.retryAfter, "2")
			}
		default:
			t.Errorf("status = %d, want 200 or 429", r.status)
		}
	}
	if ok200 == 0 {
		t.Error("no request was accepted under saturation")
	}
	if shed429 == 0 {
		t.Error("no request was shed under saturation")
	}
	st := getStats(t, base)
	if st.Overload == nil || st.Overload.Shed == 0 {
		t.Errorf("statsz shed counter did not advance: %+v", st.Overload)
	}
}

// TestDegradedServingEndToEnd: a budget-starved exact stage returns a
// valid bounds-marked degraded report (X-Degraded header, degraded fields
// in the body), the degraded result is cached and served byte-identically,
// and easy instances are unaffected.
func TestDegradedServingEndToEnd(t *testing.T) {
	base := startDaemon(t, "-platform", "2+1", "-exact", "-budget", "1")

	r1, body1 := post(t, base+"/v1/analyze", parallel3Task(t))
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("degraded analyze = %d: %s", r1.StatusCode, body1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	if got := r1.Header.Get("X-Degraded"); got != hetrta.DegradedExactBudget {
		t.Fatalf("X-Degraded = %q, want %q", got, hetrta.DegradedExactBudget)
	}
	var rep hetrta.Report
	if err := json.Unmarshal(body1, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.DegradedReason != hetrta.DegradedExactBudget {
		t.Fatalf("report not marked degraded: %s", body1)
	}
	if rep.Exact == nil || rep.Exact.Makespan != 6 || rep.Exact.LowerBound != 5 {
		t.Fatalf("degraded report lost the feasible bracket: %s", body1)
	}

	r2, body2 := post(t, base+"/v1/analyze", parallel3Task(t))
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat degraded X-Cache = %q, want hit", got)
	}
	if got := r2.Header.Get("X-Degraded"); got != hetrta.DegradedExactBudget {
		t.Fatalf("repeat X-Degraded = %q, want %q", got, hetrta.DegradedExactBudget)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cached degraded response not byte-identical")
	}

	r3, body3 := post(t, base+"/v1/analyze", chainTask(t))
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("easy analyze = %d: %s", r3.StatusCode, body3)
	}
	if got := r3.Header.Get("X-Degraded"); got != "" {
		t.Fatalf("easy instance marked degraded: %q", got)
	}

	st := getStats(t, base)
	if st.Degraded < 2 {
		t.Fatalf("degraded counter = %d, want >= 2", st.Degraded)
	}
	if st.HardInstances == nil || st.HardInstances.Entries != 1 {
		t.Fatalf("hard-instance cache = %+v, want 1 entry", st.HardInstances)
	}
	if st.Breaker == nil || st.Breaker.State != "closed" {
		t.Fatalf("breaker = %+v, want closed (one failure is below threshold)", st.Breaker)
	}
}

// TestBatchDegradedVisibility: batch responses count degraded items in
// X-Degraded-Count, carry per-item degraded fields inline, and the whole
// body is pinned by a golden file.
func TestBatchDegradedVisibility(t *testing.T) {
	base := startDaemon(t, "-platform", "2+1", "-bounds", "rhom", "-exact", "-budget", "1")

	req, err := json.Marshal(map[string]any{"graphs": []json.RawMessage{
		hostPairTask(t),  // easy: proven optimal, not degraded
		parallel3Task(t), // hard: budget-exhausted, degraded
		parallel3Task(t), // duplicate: coalesces, shares the degraded entry
	}})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := post(t, base+"/v1/analyze/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Degraded-Count"); got != "2" {
		t.Fatalf("X-Degraded-Count = %q, want 2", got)
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
	if !bytes.Equal(out.Reports[1], out.Reports[2]) {
		t.Fatal("duplicate degraded slots served different bytes")
	}
	var easy, hard hetrta.Report
	if err := json.Unmarshal(out.Reports[0], &easy); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Reports[1], &hard); err != nil {
		t.Fatal(err)
	}
	if easy.Degraded {
		t.Fatalf("easy slot marked degraded: %s", out.Reports[0])
	}
	if !hard.Degraded || hard.DegradedReason != hetrta.DegradedExactBudget {
		t.Fatalf("hard slot not marked degraded: %s", out.Reports[1])
	}

	var pretty bytes.Buffer
	if err := json.Indent(&pretty, data, "", "  "); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "batch_degraded.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, pretty.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), bytes.TrimSpace(pretty.Bytes())) {
		t.Errorf("batch response drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", golden, pretty.Bytes(), want)
	}
}

// TestReadyz: a freshly started daemon is ready.
func TestReadyz(t *testing.T) {
	base := startDaemon(t)
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ready") {
		t.Fatalf("readyz = %d %s, want 200 ready", resp.StatusCode, body)
	}
}

// TestBodySizeAndReadErrors: exceeding -max-body is 413 with the limit in
// the message; a transport-level read failure (client died mid-body) is
// 400, not 413.
func TestBodySizeAndReadErrors(t *testing.T) {
	base := startDaemon(t, "-max-body", "64")

	big := bytes.Repeat([]byte("x"), 256)
	for _, ep := range []string{"/v1/analyze", "/v1/analyze/batch", "/v1/admit"} {
		resp, body := post(t, base+ep, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body = %d (%s), want 413", ep, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "64-byte limit") {
			t.Errorf("%s 413 body lacks the limit: %s", ep, body)
		}
	}

	// Announce 40 bytes, send 8, half-close: the server's read fails below
	// the size cap and must map to 400.
	host := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 40\r\n\r\n{\"nodes\"", host)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	raw, _ := io.ReadAll(conn)
	if !strings.Contains(string(raw), "HTTP/1.1 400") {
		t.Fatalf("truncated body response:\n%s\nwant 400", raw)
	}
}

// TestHandlerPanicRecovered: an injected handler panic kills one request
// (503) but never the daemon, and is counted in /statsz.
func TestHandlerPanicRecovered(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.Handler, Count: 1, Panic: true})
	base := startDaemonInj(t, inj)

	resp, body := post(t, base+"/v1/analyze", chainTask(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panicked request = %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal fault") {
		t.Fatalf("503 body = %s", body)
	}

	h, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("daemon died after handler panic: %v", err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", h.StatusCode)
	}
	resp2, body2 := post(t, base+"/v1/analyze", chainTask(t))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("analyze after panic = %d (%s), want 200", resp2.StatusCode, body2)
	}
	if st := getStats(t, base); st.RecoveredPanics != 1 {
		t.Fatalf("recoveredPanics = %d, want 1", st.RecoveredPanics)
	}
}

// TestBatchPanicRecovered: a panic while a batch's items run on worker
// goroutines still reaches the per-request recovery (503) instead of
// killing the daemon, and the same batch succeeds afterwards.
func TestBatchPanicRecovered(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.Exec, Count: 1, Panic: true})
	base := startDaemonInj(t, inj)

	req, err := json.Marshal(map[string]any{"graphs": []json.RawMessage{chainTask(t), hostPairTask(t)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, base+"/v1/analyze/batch", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("panicked batch = %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal fault") {
		t.Fatalf("503 body = %s", body)
	}

	h, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("daemon died after batch panic: %v", err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", h.StatusCode)
	}
	if st := getStats(t, base); st.RecoveredPanics != 1 {
		t.Fatalf("recoveredPanics = %d, want 1", st.RecoveredPanics)
	}
	resp2, body2 := post(t, base+"/v1/analyze/batch", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("batch after panic = %d (%s), want 200", resp2.StatusCode, body2)
	}
}

// TestGracefulShutdownDrainsInFlight: once shutdown begins /readyz flips
// to 503 during -drain-delay, the in-flight (injected-latency) analysis
// still completes with 200 inside -grace, the daemon exits 0, and new
// connections are refused afterwards.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.Exec, Count: 1, Latency: 1200 * time.Millisecond})
	h := launchDaemon(t, inj, "-grace", "10s", "-drain-delay", "700ms")

	task := chainTask(t)
	type result struct {
		status int
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(h.base+"/v1/analyze", "application/json", bytes.NewReader(task))
		if err != nil {
			resCh <- result{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		resCh <- result{resp.StatusCode, nil}
	}()
	waitInFlight(t, h.base, 1)
	h.cancel()

	sawDraining := false
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(h.base + "/readyz")
		if err != nil {
			break // listener closed; the drain window is over
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && strings.Contains(string(body), "draining") {
			sawDraining = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDraining {
		t.Error("never observed /readyz = 503 draining during shutdown")
	}

	select {
	case r := <-resCh:
		if r.err != nil || r.status != http.StatusOK {
			t.Errorf("in-flight request during drain: status %d err %v, want 200", r.status, r.err)
		}
	case <-time.After(15 * time.Second):
		t.Error("in-flight request never completed during drain")
	}
	select {
	case code := <-h.done:
		if code != 0 {
			t.Errorf("daemon exited with code %d, want 0", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after draining")
	}
	if _, err := http.Post(h.base+"/v1/analyze", "application/json", bytes.NewReader(task)); err == nil {
		t.Error("new connection accepted after shutdown")
	}
}

// TestShutdownClosesUnusedConnections: a connection dialed but never used
// does not hold the drain. Shutdown closes it and the daemon exits at
// once, instead of waiting out http.Server's 5 s allowance for a new
// connection to send its first request.
func TestShutdownClosesUnusedConnections(t *testing.T) {
	h := launchDaemon(t, nil)
	raw, err := net.Dial("tcp", strings.TrimPrefix(h.base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// The server accepts connections in order, so once a later one is
	// served the raw connection has been accepted too.
	resp, err := http.Get(h.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	h.cancel()
	select {
	case code := <-h.done:
		if code != 0 {
			t.Errorf("daemon exited with code %d, want 0", code)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("drain took %v with one unused connection open, want well under 5s", d)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// TestShutdownGraceExceeded: an analysis outliving -grace forces the
// error exit path (code 1) after the stragglers are hard-closed.
func TestShutdownGraceExceeded(t *testing.T) {
	inj := faultinject.New(faultinject.Rule{Point: faultinject.Exec, Count: 1, Latency: 2 * time.Second})
	h := launchDaemon(t, inj, "-grace", "150ms")

	task := chainTask(t)
	go func() {
		resp, err := http.Post(h.base+"/v1/analyze", "application/json", bytes.NewReader(task))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitInFlight(t, h.base, 1)
	h.cancel()

	select {
	case code := <-h.done:
		if code != 1 {
			t.Fatalf("exit code = %d, want 1 (grace exceeded)", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after the grace period expired")
	}
}
