package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

// quick returns w with store-spill's memory cache, and so its working set,
// cut eightfold, for tests that must finish in seconds.
func quick(w workload) workload {
	if w.cfg.cache > 0 {
		w.cfg.cache /= 8
	}
	return w
}

func TestPlansAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := quick(w)
		t.Run(w.name, func(t *testing.T) {
			digest := func(seed int64) [32]byte {
				p, err := w.plan(w.cfg, seed, w.requests(0.2))
				if err != nil {
					t.Fatal(err)
				}
				if len(p.timed) == 0 {
					t.Fatal("empty timed plan")
				}
				return p.digest()
			}
			a, b := digest(1), digest(1)
			if a != b {
				t.Error("seed 1 gave two different plans")
			}
			if digest(2) == a {
				t.Error("seeds 1 and 2 gave the same plan")
			}
		})
	}
}

// stubDaemon serves /v1/analyze like dagrtad does for the analyze-hit
// workload, isomorphic graphs sharing the first analysis' bytes, except
// that the response numbered flip (counting from 0) has one byte changed.
func stubDaemon(t *testing.T, flip int) *httptest.Server {
	t.Helper()
	an, err := daemonConfig{}.analyzer()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	cache := make(map[string][]byte)
	served := 0
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		g, err := decodeGraph(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fp := g.Fingerprint().String()
		mu.Lock()
		defer mu.Unlock()
		out, ok := cache[fp]
		if !ok {
			rep, err := an.Analyze(context.Background(), g)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			if out, err = json.Marshal(rep); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			cache[fp] = out
		}
		if served == flip {
			out = bytes.Clone(out)
			out[len(out)/2] ^= 1
		}
		served++
		w.Header().Set("X-Fingerprint", fp)
		w.Write(out)
	}))
}

func TestOracleCatchesOneFlippedByte(t *testing.T) {
	w, _ := workloadByName("analyze-hit")
	p, err := w.plan(w.cfg, 1, w.requests(0.1))
	if err != nil {
		t.Fatal(err)
	}
	firstRepeat := slices.IndexFunc(p.timed, func(rq request) bool {
		return slices.ContainsFunc(p.preload, func(pre request) bool { return bytes.Equal(pre.body, rq.body) })
	})
	if firstRepeat < 0 {
		t.Fatal("plan has no byte-identical repeat")
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		flip int // response index across preload then timed; -1 none
		ok   bool
	}{
		{"clean", -1, true},
		{"preload", 3, false},
		{"repeat", len(p.preload) + firstRepeat, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := stubDaemon(t, c.flip)
			defer srv.Close()
			client := newClient(1)
			defer client.CloseIdleConnections()
			pre, _ := closedLoop(ctx, client, srv.URL, p.preload, 1, time.Now(), 0)
			timed, _ := closedLoop(ctx, client, srv.URL, p.timed, 1, time.Now(), 0)
			err := p.verify(nil, pre, timed)
			if (err == nil) != c.ok {
				t.Errorf("verify = %v, want ok=%t", err, c.ok)
			}
		})
	}
}
