package taskset_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/taskset"
)

// TestResolveMatchesApplyDelta: on random deltas against a base with
// duplicate tasks, including updates that replace a task an earlier update
// added, the resolved edit applied to the base's canonical digests gives
// the canonical digests, hence the fingerprint, of the set
// ApplyDeltaDigests builds, and Resolve fails exactly when and as it does.
func TestResolveMatchesApplyDelta(t *testing.T) {
	pool := make([]taskset.SporadicTask, 6)
	for i := range pool {
		pool[i] = mkSporadic(t, int64(i+1), 0.3, 0.2)
	}
	digest := func(i int) taskset.TaskDigest { return pool[i].Digest() }
	base := taskset.Taskset{Tasks: []taskset.SporadicTask{pool[0], pool[1], pool[1], pool[2]}}
	baseDs := make([]taskset.TaskDigest, len(base.Tasks))
	for i, task := range base.Tasks {
		baseDs[i] = task.Digest()
	}
	r := rand.New(rand.NewSource(7))
	for trial := range 300 {
		var d taskset.Delta
		for range r.Intn(3) {
			d.Remove = append(d.Remove, digest(r.Intn(len(pool))))
		}
		for range r.Intn(3) {
			d.Update = append(d.Update, taskset.TaskUpdate{Old: digest(r.Intn(len(pool))), Task: pool[r.Intn(len(pool))]})
		}
		for range r.Intn(3) {
			d.Add = append(d.Add, pool[r.Intn(len(pool))])
		}
		e, gotErr := d.Resolve(func(dg taskset.TaskDigest) int {
			n := 0
			for _, b := range baseDs {
				if b == dg {
					n++
				}
			}
			return n
		})
		ts, ds, wantErr := base.ApplyDeltaDigests(baseDs, d)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: error %v, want %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for _, l := range [][]taskset.TaskDigest{e.Removed, e.AddedDigests} {
			if !slices.IsSortedFunc(l, taskset.CompareDigests) {
				t.Fatalf("trial %d: edit lists not in canonical order", trial)
			}
		}
		for i, task := range e.Added {
			if task.Digest() != e.AddedDigests[i] {
				t.Fatalf("trial %d: added task %d does not have its listed digest", trial, i)
			}
		}
		got := slices.Clone(baseDs)
		for _, dg := range e.Removed {
			i := slices.Index(got, dg)
			if i < 0 {
				t.Fatalf("trial %d: edit removes %s, which the base lacks", trial, dg)
			}
			got = slices.Delete(got, i, i+1)
		}
		got = append(got, e.AddedDigests...)
		slices.SortFunc(got, taskset.CompareDigests)
		_, want := ts.CanonicalWithGivenDigests(ds)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: digests differ from the applied set's canonical digests", trial)
		}
		if taskset.FingerprintFromDigests(got) != ts.Fingerprint() {
			t.Fatalf("trial %d: fingerprint differs from the applied set's", trial)
		}
	}
}
