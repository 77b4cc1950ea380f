package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/taskgen"
)

// BenchmarkAnalyzeHandler times one POST /v1/analyze through the daemon's
// handler, without a network, for a graph whose report is resident. The
// daemon runs the serving benchmark's analyze-hit configuration (4+1, the
// three safe bounds, the simulation) on a graph of its shape (Small(8,24),
// offload share 0.15), with a 64-entry cache. "identical" sends the same
// bytes every time. "relabeled" cycles through 256 isomorphic relabelings,
// more than that cache's body memo keeps, so every request decodes and
// fingerprints its body.
func BenchmarkAnalyzeHandler(b *testing.B) {
	const cacheSize = 64 // the body memo keeps as many bodies
	svc, _, err := buildService(serviceConfig{
		platform: "4+1", bounds: "rhom,rhet,typed-rhom", sim: true,
		cacheSize: cacheSize, shards: 16, maxQueue: 64, retryAfter: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	d := &daemon{svc: svc, cfg: config{requestTimeout: 30 * time.Second, maxBody: 8 << 20, maxBatch: 1024}, errw: io.Discard}
	h := d.handler()
	g, _, _, err := taskgen.MustNew(taskgen.Small(8, 24), 1).HetTask(0.15)
	if err != nil {
		b.Fatal(err)
	}
	body := graphJSON(b, g)
	r := rand.New(rand.NewSource(1))
	relabeled := make([][]byte, 256)
	for i := range relabeled {
		relabeled[i] = permuteGraphJSON(b, r, body)
	}
	// http.NewRequest, unlike httptest.NewRequest, parses no request
	// text, so the harness adds little beyond the recorder.
	post := func(b *testing.B, body []byte) *httptest.ResponseRecorder {
		req, err := http.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	serve := func(b *testing.B, body []byte) {
		if rec := post(b, body); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			b.Fatalf("status %d, X-Cache %q: %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body)
		}
	}
	if rec := post(b, body); rec.Code != http.StatusOK {
		b.Fatalf("first request: status %d: %s", rec.Code, rec.Body)
	}
	b.Run("identical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve(b, body)
		}
	})
	// next carries over between the calls of the relabeled body (b.N = 1,
	// then the timed N, again per -count), so a relabeling comes round only
	// after len(relabeled) requests, long after the memo dropped it.
	next := 0
	b.Run("relabeled", func(b *testing.B) {
		// Warm up with more relabelings than the body memo keeps, so its
		// generations are full and the pools primed before timing starts:
		// a single -benchtime 2x run then reads the steady state.
		for range 2 * cacheSize {
			serve(b, relabeled[next%len(relabeled)])
			next++
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, relabeled[next%len(relabeled)])
			next++
		}
	})
}
