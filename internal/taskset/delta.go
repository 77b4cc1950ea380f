package taskset

import (
	"fmt"
	"slices"
)

// Delta is an incremental edit against a base taskset: arrivals in Add,
// departures in Remove (named by task digest), and parameter or graph
// changes in Update (remove Old, add Task — expressed as a pair so the
// service can account an update as one event). Because the canonical
// fingerprint is order-insensitive, a delta composed with a base is
// equivalent to re-submitting the full resulting set: the same digests
// produce the same canonical order, the same analysis, and the same bytes.
type Delta struct {
	Add    []SporadicTask
	Remove []TaskDigest
	Update []TaskUpdate
}

// TaskUpdate replaces the task with digest Old by Task.
type TaskUpdate struct {
	Old  TaskDigest
	Task SporadicTask
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.Add) == 0 && len(d.Remove) == 0 && len(d.Update) == 0
}

// Size returns the number of edits (adds + removes + updates).
func (d Delta) Size() int { return len(d.Add) + len(d.Remove) + len(d.Update) }

// ApplyDelta returns the taskset obtained by applying d to ts. Each Remove
// (and each Update's Old) deletes exactly one instance of the named digest
// — duplicates are interchangeable, so which instance is dropped is
// unobservable — and a digest not present in the remaining set is an
// error, since it signals a client working against a stale base. Added
// tasks are not validated here; the facade validates the resulting set.
// The receiver is not modified; member graphs are shared, not cloned.
func (ts Taskset) ApplyDelta(d Delta) (Taskset, error) {
	out, _, err := ts.ApplyDeltaDigests(nil, d)
	return out, err
}

// ApplyDeltaDigests is ApplyDelta with digest bookkeeping: digests, when
// parallel to ts.Tasks, carries the base tasks' digests so removals resolve
// without re-hashing the base, and the returned slice holds the resulting
// set's digests (parallel to the returned tasks) so the caller can derive
// the resulting fingerprint without another pass. Only tasks the delta
// introduces are hashed. A nil (or mismatched) digests is computed on the
// spot — ApplyDelta is exactly that spelling.
func (ts Taskset) ApplyDeltaDigests(digests []TaskDigest, d Delta) (Taskset, []TaskDigest, error) {
	n := len(ts.Tasks)
	grown := n + len(d.Add) + len(d.Update)
	out := Taskset{Tasks: make([]SporadicTask, n, grown)}
	copy(out.Tasks, ts.Tasks)
	ds := make([]TaskDigest, n, grown)
	if len(digests) == n {
		copy(ds, digests)
	} else {
		for i, t := range ts.Tasks {
			ds[i] = t.Digest()
		}
	}
	remove := func(dg TaskDigest, what string) error {
		i, err := indexOfDigest(ds, dg, what)
		if err != nil {
			return err
		}
		out.Tasks = append(out.Tasks[:i], out.Tasks[i+1:]...)
		ds = append(ds[:i], ds[i+1:]...)
		return nil
	}
	for _, dg := range d.Remove {
		if err := remove(dg, "remove"); err != nil {
			return Taskset{}, nil, err
		}
	}
	for _, u := range d.Update {
		if err := remove(u.Old, "update"); err != nil {
			return Taskset{}, nil, err
		}
		out.Tasks = append(out.Tasks, u.Task)
		ds = append(ds, u.Task.Digest())
	}
	for _, t := range d.Add {
		out.Tasks = append(out.Tasks, t)
		ds = append(ds, t.Digest())
	}
	return out, ds, nil
}

// ApplyDeltaToDigests returns, in canonical (ascending) order, the digests
// of the set ApplyDeltaDigests(digests, d) returns, without building that
// set: FingerprintFromDigests of the result is its fingerprint. digests
// must be parallel to the base tasks; it is not modified. Edits apply in
// ApplyDeltaDigests' order and fail with its errors.
func ApplyDeltaToDigests(digests []TaskDigest, d Delta) ([]TaskDigest, error) {
	ds := make([]TaskDigest, len(digests), len(digests)+len(d.Add)+len(d.Update))
	copy(ds, digests)
	remove := func(dg TaskDigest, what string) error {
		i, err := indexOfDigest(ds, dg, what)
		if err == nil {
			ds = append(ds[:i], ds[i+1:]...)
		}
		return err
	}
	for _, dg := range d.Remove {
		if err := remove(dg, "remove"); err != nil {
			return nil, err
		}
	}
	for _, u := range d.Update {
		if err := remove(u.Old, "update"); err != nil {
			return nil, err
		}
		ds = append(ds, u.Task.Digest())
	}
	for _, t := range d.Add {
		ds = append(ds, t.Digest())
	}
	slices.SortFunc(ds, func(a, b TaskDigest) int { return compareDigests(a, b) })
	return ds, nil
}

// indexOfDigest returns the index of the first dg in ds. A digest not in
// ds is the error of a delta edit (what) naming a task its base lacks.
func indexOfDigest(ds []TaskDigest, dg TaskDigest, what string) (int, error) {
	if i := slices.Index(ds, dg); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("taskset: delta %s: task digest %s not in base set", what, dg)
}
