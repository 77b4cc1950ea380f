package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"testing"

	hetrta "repro"
	"repro/internal/resilience/faultinject"
	"repro/internal/taskgen"
)

// servedHeaders are the response headers a repeat must reproduce.
var servedHeaders = []string{"Content-Type", "Content-Length", "X-Cache", "X-Fingerprint", "X-Degraded"}

// TestAnalyzeRepeatFromBodyMemoE2E: a byte-identical repeat, served from
// the body memo, carries the same body as the first response and the same
// headers as a hit on a relabeled body, which is decoded and fingerprinted;
// the /statsz request counters move as for any other hit.
func TestAnalyzeRepeatFromBodyMemoE2E(t *testing.T) {
	base := startDaemon(t)
	r1, body1 := post(t, base+"/v1/analyze", chainTask(t))
	r2, body2 := post(t, base+"/v1/analyze", relabeledChainTask(t))
	before := getStats(t, base)
	r3, body3 := post(t, base+"/v1/analyze", chainTask(t))
	after := getStats(t, base)
	for i, r := range []*http.Response{r1, r2, r3} {
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i+1, r.StatusCode)
		}
	}
	if !bytes.Equal(body3, body1) || !bytes.Equal(body2, body1) {
		t.Fatal("repeat served different bytes")
	}
	for _, h := range servedHeaders {
		if got, want := r3.Header.Values(h), r2.Header.Values(h); !slices.Equal(got, want) {
			t.Errorf("header %s: memo hit %q, decoded hit %q", h, got, want)
		}
	}
	if r3.Header.Get("X-Cache") != "hit" || r3.Header.Get("X-Fingerprint") != r1.Header.Get("X-Fingerprint") {
		t.Fatalf("repeat headers %v", r3.Header)
	}
	if d := after.Requests - before.Requests; d != 1 {
		t.Errorf("requests +%d, want +1", d)
	}
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Executions != before.Executions {
		t.Errorf("statsz before %+v, after %+v; want one more hit and nothing else", before.Stats, after.Stats)
	}
	if after.BodyMemoHits != 1 {
		t.Errorf("bodyMemoHits = %d, want 1", after.BodyMemoHits)
	}
}

// TestAnalyzeMemoKnownEvictedE2E: with a cache too small to keep it, a
// report evicted by a batch is re-analyzed on the next byte-identical
// request, which the memo still knows, and served byte-identically as a
// miss.
func TestAnalyzeMemoKnownEvictedE2E(t *testing.T) {
	base := startDaemon(t, "-cache", "4", "-cache-shards", "1")
	r1, body1 := post(t, base+"/v1/analyze", chainTask(t))
	var graphs []json.RawMessage
	for w := int64(2); w < 6; w++ {
		graphs = append(graphs, hostChainTaskW(t, w))
	}
	batch, err := json.Marshal(map[string]any{"graphs": graphs})
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := post(t, base+"/v1/analyze/batch", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d: %s", resp.StatusCode, data)
	}
	r2, body2 := post(t, base+"/v1/analyze", chainTask(t))
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Cache") != "miss" {
		t.Fatalf("evicted repeat: status %d, X-Cache %q; want 200 miss", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body2, body1) || r2.Header.Get("X-Fingerprint") != r1.Header.Get("X-Fingerprint") {
		t.Fatal("re-analysis served different bytes or fingerprint")
	}
	st := getStats(t, base)
	if st.Executions != 6 || st.BodyMemoHits != 1 {
		t.Fatalf("statsz = %+v, want 6 executions and 1 body-memo hit", st.Stats)
	}
}

// TestAnalyzeMalformedNeverMemoizedE2E: a body that fails to decode gets
// the same 400 and error text however often it is sent, and never enters
// the memo. A cyclic graph decodes, so its body is memoized, but its
// analysis fails and is never cached: every repeat is analyzed again and
// gets the same 422.
func TestAnalyzeMalformedNeverMemoizedE2E(t *testing.T) {
	base := startDaemon(t)
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"nodes":[`, http.StatusBadRequest},
		{`{"nodes":[{"wcet":1}],"edges":[[0,5]]}`, http.StatusBadRequest},
		{`{"nodes":[{"wcet":1},{"wcet":2}],"edges":[[0,1],[1,0]]}`, http.StatusUnprocessableEntity},
	} {
		r1, want := post(t, base+"/v1/analyze", []byte(c.body))
		if r1.StatusCode != c.code {
			t.Fatalf("%s: status %d, want %d", c.body, r1.StatusCode, c.code)
		}
		for range 2 {
			r, got := post(t, base+"/v1/analyze", []byte(c.body))
			if r.StatusCode != c.code || !bytes.Equal(got, want) {
				t.Fatalf("%s repeated: %d %s, want %d %s", c.body, r.StatusCode, got, c.code, want)
			}
		}
	}
	if st := getStats(t, base); st.BodyMemoHits != 2 || st.Executions != 3 || st.Failures != 3 {
		t.Fatalf("statsz = %+v; want only the cyclic repeats known, each executed and failed", st.Stats)
	}
}

// TestAnalyzeCacheGetFiresAsDecodedE2E: each /v1/analyze request passes
// the CacheGet fault seam as often as when every body was decoded: twice
// for a miss (lookup and the flight leader's double-check), once for a
// hit, whether a byte-identical or a relabeled body.
func TestAnalyzeCacheGetFiresAsDecodedE2E(t *testing.T) {
	inj := faultinject.New()
	base := startDaemonInj(t, inj)
	for i, req := range []struct {
		body  []byte
		fires uint64
	}{
		{chainTask(t), 2}, {chainTask(t), 1}, {relabeledChainTask(t), 1}, {chainTask(t), 1}, {relabeledChainTask(t), 1},
	} {
		before := inj.Stats().Hits[faultinject.CacheGet]
		if resp, data := post(t, base+"/v1/analyze", req.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d: %s", i, resp.StatusCode, data)
		}
		if got := inj.Stats().Hits[faultinject.CacheGet] - before; got != req.fires {
			t.Fatalf("request %d passed the CacheGet seam %d times, want %d", i, got, req.fires)
		}
	}
}

// TestSingleBodyContentLength: analysis, admission and delta 200s declare
// their body's length and are not chunked, also past net/http's 2 KB
// response buffer.
func TestSingleBodyContentLength(t *testing.T) {
	base := startDaemon(t, "-platform", "4+1", "-bounds", "rhom,rhet,typed-rhom")
	gen := taskgen.MustNew(taskgen.Small(8, 16), 3)
	var tasks []hetrta.SporadicTask
	for range 12 {
		tasks = append(tasks, genTask(t, gen))
	}
	admitResp, admitData := post(t, base+"/v1/admit", wholeSetBody(t, tasks[:11]...))
	fp := admitResp.Header.Get("X-Taskset-Fingerprint")
	deltaResp, deltaData := post(t, base+"/v1/admit/delta", deltaBody(t, fp, map[string]any{"add": []any{wireTask(t, tasks[11])}}))
	analyzeResp, analyzeData := post(t, base+"/v1/analyze", graphJSON(t, tasks[0].G))
	r := rand.New(rand.NewSource(1))
	hitResp, hitData := post(t, base+"/v1/analyze", permuteGraphJSON(t, r, graphJSON(t, tasks[0].G)))
	for _, c := range []struct {
		name string
		resp *http.Response
		data []byte
	}{
		{"admit", admitResp, admitData}, {"delta", deltaResp, deltaData},
		{"analyze", analyzeResp, analyzeData}, {"analyze hit", hitResp, hitData},
	} {
		if c.resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d: %s", c.name, c.resp.StatusCode, c.data)
		}
		if got := c.resp.Header.Get("Content-Length"); got != strconv.Itoa(len(c.data)) || c.resp.ContentLength != int64(len(c.data)) {
			t.Errorf("%s: Content-Length %q, body %d bytes", c.name, got, len(c.data))
		}
		if te := c.resp.TransferEncoding; len(te) != 0 {
			t.Errorf("%s: Transfer-Encoding %v", c.name, te)
		}
	}
	if len(admitData) <= 2048 || len(deltaData) <= 2048 {
		t.Fatalf("admission bodies of %d and %d bytes do not pass the 2 KB buffer", len(admitData), len(deltaData))
	}
}
