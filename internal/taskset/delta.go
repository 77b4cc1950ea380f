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

// Edit is a delta resolved against a base set: the base members it
// removes, named by digest, and the tasks it adds with their digests. Each
// list is in canonical (ascending digest) order, so the resulting set is a
// merge of three sorted lists.
type Edit struct {
	Removed      []TaskDigest
	Added        []SporadicTask
	AddedDigests []TaskDigest
}

// Resolve resolves d against a base set without building the resulting
// set: count(dg) is the number of base members with digest dg. The edits
// apply in ApplyDeltaDigests' order and fail with its errors, and the base
// with the returned edit applied holds the tasks ApplyDeltaDigests would
// return. Only the added tasks are hashed.
func (d Delta) Resolve(count func(TaskDigest) int) (Edit, error) {
	var e Edit
	remove := func(dg TaskDigest, what string) error {
		// A base member goes first, as in ApplyDeltaDigests; an update may
		// also replace a task an earlier update added.
		i, _ := slices.BinarySearchFunc(e.Removed, dg, CompareDigests)
		j := i
		for j < len(e.Removed) && e.Removed[j] == dg {
			j++
		}
		if j-i < count(dg) {
			e.Removed = slices.Insert(e.Removed, j, dg)
			return nil
		}
		if k, ok := slices.BinarySearchFunc(e.AddedDigests, dg, CompareDigests); ok {
			e.Added = slices.Delete(e.Added, k, k+1)
			e.AddedDigests = slices.Delete(e.AddedDigests, k, k+1)
			return nil
		}
		return errNotInBase(what, dg)
	}
	add := func(t SporadicTask) {
		dg := t.Digest()
		j, _ := slices.BinarySearchFunc(e.AddedDigests, dg, CompareDigests)
		e.Added = slices.Insert(e.Added, j, t)
		e.AddedDigests = slices.Insert(e.AddedDigests, j, dg)
	}
	for _, dg := range d.Remove {
		if err := remove(dg, "remove"); err != nil {
			return Edit{}, err
		}
	}
	for _, u := range d.Update {
		if err := remove(u.Old, "update"); err != nil {
			return Edit{}, err
		}
		add(u.Task)
	}
	for _, t := range d.Add {
		add(t)
	}
	return e, nil
}

// indexOfDigest returns the index of the first dg in ds. A digest not in
// ds is the error of a delta edit (what) naming a task its base lacks.
func indexOfDigest(ds []TaskDigest, dg TaskDigest, what string) (int, error) {
	if i := slices.Index(ds, dg); i >= 0 {
		return i, nil
	}
	return -1, errNotInBase(what, dg)
}

// errNotInBase is the error of a delta edit (what) naming a task its base
// lacks.
func errNotInBase(what string, dg TaskDigest) error {
	return fmt.Errorf("taskset: delta %s: task digest %s not in base set", what, dg)
}
