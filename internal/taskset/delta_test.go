package taskset_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/taskset"
)

// TestApplyDeltaToDigestsMatchesApplyDelta: on random deltas against a
// base with duplicate tasks, including updates that replace a task an
// earlier update added, the digest-only application gives the canonical
// digests, hence the fingerprint, of the set ApplyDeltaDigests builds, and
// fails exactly when and as it does.
func TestApplyDeltaToDigestsMatchesApplyDelta(t *testing.T) {
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
		got, gotErr := taskset.ApplyDeltaToDigests(baseDs, d)
		ts, ds, wantErr := base.ApplyDeltaDigests(baseDs, d)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("trial %d: error %v, want %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		_, want := ts.CanonicalWithGivenDigests(ds)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: digests differ from the applied set's canonical digests", trial)
		}
		if taskset.FingerprintFromDigests(got) != ts.Fingerprint() {
			t.Fatalf("trial %d: fingerprint differs from the applied set's", trial)
		}
	}
	if len(baseDs) != 4 || baseDs[0] != digest(0) || baseDs[3] != digest(2) {
		t.Fatal("ApplyDeltaToDigests modified its input")
	}
}
