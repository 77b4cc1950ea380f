package service

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	hetrta "repro"
	"repro/internal/taskgen"
	"repro/internal/taskset"
)

// admitEntry returns the resident admit entry of fp.
func admitEntry(t *testing.T, s *Service, fp hetrta.TasksetFingerprint) *entry {
	t.Helper()
	ent, ok := s.cache.get(keyOf(recAdmit, fp))
	if !ok || ent.anchor == nil {
		t.Fatalf("admission %s not resident with an anchor", fp)
	}
	return ent
}

// TestAdmitChurnMatchesWholeSetAdmit: a resident set churns through
// alternating arrivals and departures, each a delta against the previous
// event's result, so deltas apply to full anchors and to reference anchors
// in turn. Every response is byte-identical to a fresh service's whole-set
// Admit of the resulting set, and evals are prepared only for tasks never
// seen before. After 7 events the last result, a reference anchor, is
// persisted flattened; after a restart it anchors 3 more events, which
// again match whole-set admissions and prepare only the new arrival.
func TestAdmitChurnMatchesWholeSetAdmit(t *testing.T) {
	const baseN, before, after = 6, 7, 3
	ctx := context.Background()
	pool, err := taskset.Generate(taskset.TasksetParams{
		N: baseN + before + after, Util: float64(baseN+before+after) / float64(baseN),
		OffloadShare: 0.25, COffFrac: 0.3, Params: taskgen.Small(10, 30),
	}, 2018)
	if err != nil {
		t.Fatal(err)
	}
	// A client names departures by the digests of tasks it holds, and
	// every request decodes fresh graphs: each task is sent as a clone.
	send := func(task hetrta.SporadicTask) hetrta.SporadicTask {
		task.G = task.G.Clone()
		return task
	}
	resident := make([]hetrta.SporadicTask, baseN)
	for i := range resident {
		resident[i] = send(pool.Tasks[i])
	}
	next := baseN // the next never-seen pool task
	// event applies one arrival (even ev) or departure (odd ev) against
	// the result fp on svc and checks the response against a fresh
	// whole-set admission.
	event := func(svc *Service, ev int, fp hetrta.TasksetFingerprint) hetrta.TasksetFingerprint {
		t.Helper()
		var delta hetrta.TasksetDelta
		if ev%2 == 0 {
			newcomer := send(pool.Tasks[next])
			next++
			delta.Add = []hetrta.SporadicTask{newcomer}
			resident = append(resident, newcomer)
		} else {
			vi := (ev * 7) % len(resident)
			delta.Remove = []hetrta.TaskDigest{resident[vi].Digest()}
			resident = append(resident[:vi:vi], resident[vi+1:]...)
		}
		got, err := svc.AdmitDelta(ctx, fp, delta)
		if err != nil {
			t.Fatalf("event %d: %v", ev, err)
		}
		full := make([]hetrta.SporadicTask, len(resident))
		for i, task := range resident {
			full[i] = send(task)
		}
		want, err := admitService(t, Options{}).Admit(ctx, hetrta.Taskset{Tasks: full})
		if err != nil {
			t.Fatalf("event %d: whole-set admit: %v", ev, err)
		}
		if got.Hit || got.Fingerprint != want.Fingerprint || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("event %d: delta (hit %v, %s) differs from whole-set admit (%s):\n%s\n%s",
				ev, got.Hit, got.Fingerprint, want.Fingerprint, got.Body, want.Body)
		}
		return got.Fingerprint
	}
	checkEvals := func(svc *Service, prepared int) {
		t.Helper()
		if st := svc.Stats(); st.EvalMisses != uint64(prepared) || st.EvalFailures != 0 {
			t.Fatalf("eval misses %d (failures %d), want %d: one per never-seen task", st.EvalMisses, st.EvalFailures, prepared)
		}
	}

	path := filepath.Join(t.TempDir(), "cache.log")
	svc := storedService(t, path, Options{})
	warm, err := svc.Admit(ctx, hetrta.Taskset{Tasks: append([]hetrta.SporadicTask(nil), resident...)})
	if err != nil {
		t.Fatal(err)
	}
	fp := warm.Fingerprint
	for ev := range before {
		base := admitEntry(t, svc, fp).anchor
		fp = event(svc, ev, fp)
		a := admitEntry(t, svc, fp).anchor
		switch {
		case base.ref == nil && a.ref != base:
			t.Fatalf("event %d: the result of a delta against a full anchor is not a reference to it", ev)
		case base.ref != nil && a.ref != nil:
			t.Fatalf("event %d: the result of a delta against a reference anchor is a reference", ev)
		}
	}
	checkEvals(svc, baseN+(before+1)/2)
	if admitEntry(t, svc, fp).anchor.ref == nil {
		t.Fatal("the last result is not a reference anchor; the round trip would not flatten one")
	}
	svc.store.Flush()

	restarted := storedService(t, path, Options{})
	if a := admitEntry(t, restarted, fp).anchor; a.ref != nil || len(a.tasks) != len(resident) {
		t.Fatalf("revived anchor: reference %v, %d members; want a full anchor of %d", a.ref != nil, len(a.tasks), len(resident))
	}
	for ev := before; ev < before+after; ev++ {
		fp = event(restarted, ev, fp)
	}
	checkEvals(restarted, 1)
}

// TestAnchorKeepsOneGraphCopy: where an eval handle joins a task, the
// anchor and the eval entry hold the handle's own work graph when the
// transitive reduction removed nothing, and the request's graph when it
// removed a redundant edge; in both cases the persisted admit and eval
// records carry the request's graph.
func TestAnchorKeepsOneGraphCopy(t *testing.T) {
	ctx := context.Background()
	plain := deltaChain(2, 8, 60, 50)
	redundant := deltaChain(1, 4, 40, 40)
	redundant.G.MustAddEdge(0, 2) // a→c beside a→b→c
	added := deltaChain(3, 5, 80, 70)

	path := filepath.Join(t.TempDir(), "cache.log")
	svc := storedService(t, path, Options{})
	base, err := svc.Admit(ctx, hetrta.Taskset{Tasks: []hetrta.SporadicTask{plain, redundant}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.AdmitDelta(ctx, base.Fingerprint, hetrta.TasksetDelta{Add: []hetrta.SporadicTask{added}})
	if err != nil {
		t.Fatal(err)
	}
	ba, ra := admitEntry(t, svc, base.Fingerprint).anchor, admitEntry(t, svc, res.Fingerprint).anchor
	if ra.ref != ba || len(ra.tasks) != 1 {
		t.Fatalf("delta result is not a one-task reference to its base's anchor")
	}
	check := func(what string, task hetrta.SporadicTask, h *hetrta.TaskEvalHandle, request *hetrta.Graph) {
		t.Helper()
		ev, ok := svc.cache.get(keyOf(recEval, task.Digest()))
		if !ok || ev.eval != h || h == nil {
			t.Fatalf("%s: anchor handle is not the resident eval handle", what)
		}
		want := h.Graph()
		if request == redundant.G {
			if h.Graph().NumEdges() >= request.NumEdges() {
				t.Fatalf("%s: the reduction removed no edge", what)
			}
			want = request
		}
		if task.G != want || ev.evalGraph != want {
			t.Fatalf("%s: anchor graph %p, eval graph %p; want %p (the work graph is %p, the request's %p)",
				what, task.G, ev.evalGraph, want, h.Graph(), request)
		}
	}
	for i, task := range ba.tasks {
		request := plain.G
		if task.Digest() == redundant.Digest() {
			request = redundant.G
		}
		check("base task", task, ba.handles[i], request)
	}
	check("added task", ra.tasks[0], ra.handles[0], added.G)

	svc.store.Flush()
	graphJSON := func(g *hetrta.Graph) string {
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	requests := map[hetrta.TaskDigest]string{}
	for _, task := range []hetrta.SporadicTask{plain, redundant, added} {
		requests[task.Digest()] = graphJSON(task.G)
		_, val, ok := svc.store.Get(svc.storeKey(keyOf(recEval, task.Digest())))
		if !ok || string(val) != requests[task.Digest()] {
			t.Fatalf("eval record %s, want the request's graph %s", val, requests[task.Digest()])
		}
	}
	for _, fp := range []hetrta.TasksetFingerprint{base.Fingerprint, res.Fingerprint} {
		_, val, ok := svc.store.Get(svc.storeKey(keyOf(recAdmit, fp)))
		if !ok {
			t.Fatalf("admit record of %s missing", fp)
		}
		var pa persistedAdmit
		if err := json.Unmarshal(val, &pa); err != nil {
			t.Fatal(err)
		}
		for i, pt := range pa.Tasks {
			dg, err := hetrta.ParseTaskDigest(pa.Digests[i])
			if err != nil {
				t.Fatal(err)
			}
			if got := graphJSON(pt.Graph); got != requests[dg] {
				t.Fatalf("admit record task %d graph %s, want the request's %s", i, got, requests[dg])
			}
		}
	}
}
