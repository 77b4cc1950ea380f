package store_test

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	hetrta "repro"
	"repro/internal/service"
	"repro/internal/store"
)

// chain is a three-node host→offload→host graph; cOff tells graphs apart.
func chain(cOff int64) *hetrta.Graph {
	g := hetrta.NewGraph()
	load := g.AddNode("load", 2, hetrta.Host)
	kern := g.AddNode("kernel", cOff, hetrta.Offload)
	post := g.AddNode("post", 3, hetrta.Host)
	g.MustAddEdge(load, kern)
	g.MustAddEdge(kern, post)
	return g
}

// TestServiceRecomputesShadowedKey: when a later record takes an earlier
// key's index slot, the service's store lookup of the earlier key misses
// instead of serving the later key's bytes, and the request recomputes a
// byte-identical body.
func TestServiceRecomputesShadowedKey(t *testing.T) {
	ctx := context.Background()
	an, err := hetrta.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	// One cache entry, so each new graph evicts the last to the store.
	svc, err := service.New(an, service.Options{CacheEntries: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Path: filepath.Join(t.TempDir(), "cache.log"), Generation: svc.Generation()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	store.ForceCollisions(st)
	if err := svc.AttachStore(st); err != nil {
		t.Fatal(err)
	}

	first, err := svc.Analyze(ctx, chain(8))
	if err != nil {
		t.Fatal(err)
	}
	st.Flush()
	if _, err := svc.Analyze(ctx, chain(12)); err != nil {
		t.Fatal(err)
	}
	st.Flush()
	if st.Len() != 1 {
		t.Fatalf("index holds %d slots, want the one both keys share", st.Len())
	}
	if _, _, ok := st.Get(first.Fingerprint.String() + "|" + svc.Signature()); ok {
		t.Fatal("Get of the shadowed key returned a record")
	}

	again, err := svc.Analyze(ctx, chain(8))
	if err != nil {
		t.Fatal(err)
	}
	if again.Hit || again.Shared || !bytes.Equal(again.Body, first.Body) {
		t.Fatalf("shadowed key: Hit=%v Shared=%v, identical body %v; want a recomputed identical body",
			again.Hit, again.Shared, bytes.Equal(again.Body, first.Body))
	}
	if s := svc.Stats(); s.Executions != 3 || s.Store.WarmHits != 0 {
		t.Fatalf("executions %d, warm hits %d; want 3 and 0", s.Executions, s.Store.WarmHits)
	}
}
