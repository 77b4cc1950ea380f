package service

import (
	"slices"

	hetrta "repro"
	"repro/internal/taskset"
)

// admitAnchor is what AdmitDelta needs of a resident admission: the
// member tasks of its taskset in canonical (ascending digest) order, with
// their digests and eval handles. It comes in two forms.
//
// A full anchor holds the members themselves: tasks, digests and handles
// are parallel, and a nil handle slot is re-prepared through taskEval.
//
// A reference anchor (ref non-nil) is the result of a delta against the
// full anchor ref: its members are ref's, without one member per digest in
// removed (ascending), and with tasks, digests and handles, which then
// hold only the added members. ref is always a full anchor, so references
// never chain, and it is the base's anchor, not its entry, so a reference
// never keeps the base's body alive.
//
// Written only before the entry is published; read-only after.
type admitAnchor struct {
	tasks   []hetrta.SporadicTask
	digests []hetrta.TaskDigest
	handles []*hetrta.TaskEvalHandle
	ref     *admitAnchor
	removed []hetrta.TaskDigest
}

// newFullAnchor anchors tasks, with digests parallel and in canonical
// order, taking ownership of both slices. Each member's handle comes from
// evals, and a member whose handle's work graph equals its graph keeps the
// work graph, so the anchor holds no second copy of it.
func newFullAnchor(tasks []hetrta.SporadicTask, digests []hetrta.TaskDigest, evals map[hetrta.TaskDigest]*hetrta.TaskEvalHandle) *admitAnchor {
	a := &admitAnchor{tasks: tasks, digests: digests, handles: make([]*hetrta.TaskEvalHandle, len(digests))}
	for i, dg := range digests {
		a.handles[i] = evals[dg]
	}
	a.shareGraphs()
	return a
}

// newRefAnchor anchors the result of the edit e against the full anchor
// base, taking ownership of e's lists, as newFullAnchor does.
func newRefAnchor(base *admitAnchor, e taskset.Edit, evals map[hetrta.TaskDigest]*hetrta.TaskEvalHandle) *admitAnchor {
	a := newFullAnchor(e.Added, e.AddedDigests, evals)
	a.ref, a.removed = base, e.Removed
	return a
}

// shareGraphs replaces each member's graph by its handle's work graph
// where the two are equal (see workGraph).
func (a *admitAnchor) shareGraphs() {
	for i, h := range a.handles {
		if h != nil {
			a.tasks[i].G = workGraph(h, a.tasks[i].G)
		}
	}
}

// workGraph returns the eval handle's reduced work graph when it equals g,
// and g otherwise. Equal graphs have the same fingerprint, digest and
// JSON, so whoever holds g may hold the work graph instead, and the
// decoded copy is released. A graph with redundant edges keeps its
// original: the store needs it for a loss-free round trip (see
// persist.go).
func workGraph(h *hetrta.TaskEvalHandle, g *hetrta.Graph) *hetrta.Graph {
	if w := h.Graph(); w == g || (g != nil && w.Equal(g)) {
		return w
	}
	return g
}

// size returns the number of members.
func (a *admitAnchor) size() int {
	if a.ref == nil {
		return len(a.tasks)
	}
	return len(a.ref.tasks) - len(a.removed) + len(a.tasks)
}

// count returns how many members have digest dg.
func (a *admitAnchor) count(dg hetrta.TaskDigest) int {
	n := countSorted(a.digests, dg)
	if a.ref != nil {
		n += countSorted(a.ref.digests, dg) - countSorted(a.removed, dg)
	}
	return n
}

// countSorted returns how many times dg occurs in the ascending ds.
func countSorted(ds []hetrta.TaskDigest, dg hetrta.TaskDigest) int {
	i, _ := slices.BinarySearchFunc(ds, dg, taskset.CompareDigests)
	n := 0
	for ; i < len(ds) && ds[i] == dg; i++ {
		n++
	}
	return n
}

// memberRun is one ascending list of members a walk merges.
type memberRun struct {
	tasks   []hetrta.SporadicTask
	digests []hetrta.TaskDigest
	handles []*hetrta.TaskEvalHandle // nil for the edit's added tasks
	next    int
}

// walk calls fn for each member of a with the edit e applied (the zero
// Edit applies nothing), in canonical order, until fn returns false. h is
// the member's eval handle, nil for a task e adds or an empty slot. The
// walk merges the sorted lists without building the set: at most three
// lists of members (the full anchor's, a reference's added ones, e's
// added ones) less two lists of removals (a reference's, e's). Digest-
// equal members are interchangeable, so a removal may cancel any of them.
func (a *admitAnchor) walk(e taskset.Edit, fn func(t *hetrta.SporadicTask, dg hetrta.TaskDigest, h *hetrta.TaskEvalHandle) bool) {
	full := a
	var runs [3]memberRun
	var removals [2][]hetrta.TaskDigest
	if a.ref != nil {
		full = a.ref
		runs[1] = memberRun{tasks: a.tasks, digests: a.digests, handles: a.handles}
		removals[0] = a.removed
	}
	runs[0] = memberRun{tasks: full.tasks, digests: full.digests, handles: full.handles}
	runs[2] = memberRun{tasks: e.Added, digests: e.AddedDigests}
	removals[1] = e.Removed
	for {
		var r *memberRun
		for k := range runs {
			c := &runs[k]
			if c.next < len(c.digests) && (r == nil || taskset.CompareDigests(c.digests[c.next], r.digests[r.next]) < 0) {
				r = c
			}
		}
		if r == nil {
			return
		}
		i := r.next
		r.next++
		dg := r.digests[i]
		if cancelled(&removals, dg) {
			continue
		}
		var h *hetrta.TaskEvalHandle
		if r.handles != nil {
			h = r.handles[i]
		}
		if !fn(&r.tasks[i], dg, h) {
			return
		}
	}
}

// cancelled consumes a removal of dg, if the removal lists hold one, and
// reports whether it did. Removals are ascending and name members, so when
// the walk reaches dg every removal below it has been consumed.
func cancelled(removals *[2][]hetrta.TaskDigest, dg hetrta.TaskDigest) bool {
	for k, rs := range removals {
		if len(rs) > 0 && rs[0] == dg {
			removals[k] = rs[1:]
			return true
		}
	}
	return false
}

// fingerprintWith returns the fingerprint of a's taskset with e applied,
// hashing the merged digests without collecting them.
func (a *admitAnchor) fingerprintWith(e taskset.Edit) hetrta.TasksetFingerprint {
	n := a.size() - len(e.Removed) + len(e.Added)
	return taskset.FingerprintOfSeq(n, func(yield func(hetrta.TaskDigest) bool) {
		a.walk(e, func(_ *hetrta.SporadicTask, dg hetrta.TaskDigest, _ *hetrta.TaskEvalHandle) bool {
			return yield(dg)
		})
	})
}

// members returns, as fresh slices, the tasks of a's taskset with e
// applied, their digests and their handles, in canonical order. A
// published anchor is never changed; whoever needs the full list (a
// delta's admission, the store) builds it here.
func (a *admitAnchor) members(e taskset.Edit) ([]hetrta.SporadicTask, []hetrta.TaskDigest, []*hetrta.TaskEvalHandle) {
	n := a.size() - len(e.Removed) + len(e.Added)
	tasks := make([]hetrta.SporadicTask, 0, n)
	digests := make([]hetrta.TaskDigest, 0, n)
	handles := make([]*hetrta.TaskEvalHandle, 0, n)
	a.walk(e, func(t *hetrta.SporadicTask, dg hetrta.TaskDigest, h *hetrta.TaskEvalHandle) bool {
		tasks = append(tasks, *t)
		digests = append(digests, dg)
		handles = append(handles, h)
		return true
	})
	return tasks, digests, handles
}
