// Package taskset lifts the paper's single-task analysis to systems of
// sporadic DAG tasks: the workload family behind the DAC'18 evaluation's
// acceptance-ratio curves. It defines the taskset model (SporadicTask,
// Taskset), an order-insensitive canonical fingerprint for serving-layer
// caching, and pluggable schedulability Policies:
//
//   - Federated (federated.go): Baruah-style federated scheduling — heavy
//     tasks get the minimal dedicated host cores proven sufficient by the
//     paper's per-DAG bounds (with a per-class accelerator budget), light
//     tasks share the remainder.
//   - Global (global.go): global fixed-priority scheduling with a
//     carry-in/interference-bound response-time iteration, after the global
//     sporadic DAG analyses of Melani et al. (ECRTS 2015), Dinh et al.
//     ("Analysis of Global Fixed-Priority Scheduling for Generalized
//     Sporadic DAG Tasks"), and Dong & Liu ("New Analysis Techniques for
//     Supporting Hard Real-Time Sporadic DAG Task Systems on
//     Multiprocessors").
//
// Both policies are sufficient tests: admission guarantees schedulability
// under the respective scheduler, rejection proves nothing. Policies
// consume per-DAG response-time bounds and graph facts through one Eval
// per task (eval.go): the facade (the root package's TasksetAnalyzer)
// builds them over its configured Bound set, the acceptance-ratio sweep
// over RTABounds.
package taskset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"iter"
	"slices"
	"sort"

	"repro/internal/dag"
)

// SporadicTask is the sporadic DAG task τ = <G, T, D, J> of the taskset
// model: a DAG G (any mix of host and offloaded nodes, each mapped to a
// platform resource class), a minimum inter-arrival time T, a constrained
// relative deadline D ≤ T, and a release jitter J — a job arriving at t is
// released for execution no later than t+J, so the analyses budget J
// against the deadline (effective deadline D−J) and extend interference
// windows by J.
type SporadicTask struct {
	// G models the parallel execution of one job of the task.
	G *dag.Graph
	// Period is the minimum inter-arrival time T.
	Period int64
	// Deadline is the constrained relative deadline D (0 < D ≤ T).
	Deadline int64
	// Jitter is the release jitter J (0 ≤ J < D).
	Jitter int64
}

// Validate checks the task's model constraints: a structurally sound DAG
// (acyclic, sane WCETs; any number of offloaded nodes is allowed — the
// multi-offload extension is part of the model here) and 0 ≤ J < D ≤ T.
func (t SporadicTask) Validate() error {
	if t.G == nil {
		return fmt.Errorf("taskset: task has nil graph")
	}
	if err := t.G.Validate(dag.ValidateOptions{AllowZeroWCET: true}); err != nil {
		return err
	}
	if t.Period <= 0 {
		return fmt.Errorf("taskset: period %d must be positive", t.Period)
	}
	if t.Deadline <= 0 {
		return fmt.Errorf("taskset: deadline %d must be positive", t.Deadline)
	}
	if t.Deadline > t.Period {
		return fmt.Errorf("taskset: constrained deadline violated: D = %d > T = %d", t.Deadline, t.Period)
	}
	if t.Jitter < 0 || t.Jitter >= t.Deadline {
		return fmt.Errorf("taskset: jitter %d outside [0, D) with D = %d", t.Jitter, t.Deadline)
	}
	return nil
}

// Utilization returns vol(G)/T.
func (t SporadicTask) Utilization() float64 {
	return float64(t.G.Volume()) / float64(t.Period)
}

// EffectiveDeadline returns D − J, the deadline budget left after the
// worst-case release jitter.
func (t SporadicTask) EffectiveDeadline() int64 { return t.Deadline - t.Jitter }

// Taskset is a system of sporadic DAG tasks sharing one execution platform.
type Taskset struct {
	Tasks []SporadicTask
}

// Validate checks every member task.
func (ts Taskset) Validate() error {
	if len(ts.Tasks) == 0 {
		return fmt.Errorf("taskset: empty taskset")
	}
	for i, t := range ts.Tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("taskset: task %d: %w", i, err)
		}
	}
	return nil
}

// Utilization returns the total utilization Σ vol_i/T_i.
func (ts Taskset) Utilization() float64 {
	var u float64
	for _, t := range ts.Tasks {
		u += t.Utilization()
	}
	return u
}

// Fingerprint is a 256-bit canonical content hash of a taskset. It is
// insensitive to the order tasks are listed in and to relabelings of the
// member graphs (each graph contributes its canonical dag.Fingerprint), and
// sensitive to every analysis-relevant parameter (graph content, period,
// deadline, jitter). Combined with a TasksetAnalyzer signature it is the
// admission cache key of the serving layer.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lower-case hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// ParseFingerprint parses the lower-case-hex form produced by
// Fingerprint.String.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("taskset: bad fingerprint %q: %w", s, err)
	}
	if len(b) != len(f) {
		return f, fmt.Errorf("taskset: bad fingerprint %q: want %d hex bytes, got %d", s, len(f), len(b))
	}
	copy(f[:], b)
	return f, nil
}

// TaskDigest is the 256-bit content hash of one SporadicTask: the graph's
// canonical (relabeling-invariant) fingerprint plus the sporadic
// parameters. Tasks with equal digests are interchangeable for analysis, so
// the digest keys per-task eval caches and names tasks in deltas.
type TaskDigest [sha256.Size]byte

// String returns the digest as lower-case hex.
func (d TaskDigest) String() string { return hex.EncodeToString(d[:]) }

// ParseTaskDigest parses the lower-case-hex form produced by
// TaskDigest.String.
func ParseTaskDigest(s string) (TaskDigest, error) {
	var d TaskDigest
	b, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("taskset: bad task digest %q: %w", s, err)
	}
	if len(b) != len(d) {
		return d, fmt.Errorf("taskset: bad task digest %q: want %d hex bytes, got %d", s, len(d), len(b))
	}
	copy(d[:], b)
	return d, nil
}

// Digest hashes one task: its graph's canonical fingerprint plus the
// sporadic parameters. The one-shot Sum256 over a stack buffer keeps
// this allocation-free — it runs per task per admission on hot serving
// paths (cache keys, canonical ordering, delta resolution).
func (t SporadicTask) Digest() TaskDigest {
	var buf [sha256.Size + 24]byte
	binary.LittleEndian.PutUint64(buf[sha256.Size:], uint64(t.Period))
	binary.LittleEndian.PutUint64(buf[sha256.Size+8:], uint64(t.Deadline))
	binary.LittleEndian.PutUint64(buf[sha256.Size+16:], uint64(t.Jitter))
	if t.G == nil { // hash exactly the bytes the streaming form hashed
		return sha256.Sum256(buf[sha256.Size:])
	}
	fp := t.G.Fingerprint()
	copy(buf[:sha256.Size], fp[:])
	return sha256.Sum256(buf[:])
}

// Fingerprint returns the taskset's canonical content hash: the sorted
// member digests hashed together, so any permutation of the same tasks —
// including graph relabelings — fingerprints identically.
func (ts Taskset) Fingerprint() Fingerprint {
	digests := make([]TaskDigest, len(ts.Tasks))
	for i, t := range ts.Tasks {
		digests[i] = t.Digest()
	}
	sort.Slice(digests, func(a, b int) bool { return CompareDigests(digests[a], digests[b]) < 0 })
	return FingerprintFromDigests(digests)
}

// FingerprintFromDigests returns the fingerprint of the taskset whose
// member digests, already in canonical (ascending) order, are ds — the
// same value Fingerprint computes, without re-hashing every task. The
// digests returned by CanonicalWithDigests are in this order.
func FingerprintFromDigests(ds []TaskDigest) Fingerprint {
	return FingerprintOfSeq(len(ds), slices.Values(ds))
}

// FingerprintOfSeq is FingerprintFromDigests of the n digests seq yields
// in canonical order, without collecting them: a merge of sorted lists
// hashes straight through.
func FingerprintOfSeq(n int, seq iter.Seq[TaskDigest]) Fingerprint {
	h := sha256.New()
	var nb [8]byte
	binary.LittleEndian.PutUint64(nb[:], uint64(n))
	h.Write(nb[:])
	for d := range seq {
		h.Write(d[:])
	}
	var out Fingerprint
	h.Sum(out[:0])
	return out
}

// CanonicalWithDigests returns a copy of the taskset with tasks in
// canonical order (ascending per-task digest), plus the per-task digests
// of that order (digests[i] is the digest of out.Tasks[i]), so callers
// keying per-task caches do not hash every graph twice. Analyses and
// reports over the canonical order are permutation-invariant by
// construction; identical tasks have identical digests and are
// interchangeable. The member graphs are shared, not cloned.
func (ts Taskset) CanonicalWithDigests() (Taskset, []TaskDigest) {
	ds := make([]TaskDigest, len(ts.Tasks))
	for i, t := range ts.Tasks {
		ds[i] = t.Digest()
	}
	return ts.CanonicalWithGivenDigests(ds)
}

// CanonicalWithGivenDigests is CanonicalWithDigests with the per-task
// digests — parallel to ts.Tasks, e.g. from ApplyDeltaDigests — already in
// hand, so no task is re-hashed. ds is not modified.
func (ts Taskset) CanonicalWithGivenDigests(ds []TaskDigest) (Taskset, []TaskDigest) {
	// Already-canonical input returns as-is (slices shared, like the member
	// graphs): the sort is stable, so on sorted input it is the identity,
	// and every caller treats the result as read-only. The delta admission
	// path canonicalizes once at the serving layer and re-enters here with
	// the same slices.
	if sorted := func() bool {
		for i := 1; i < len(ds); i++ {
			if CompareDigests(ds[i-1], ds[i]) > 0 {
				return false
			}
		}
		return true
	}(); sorted {
		return ts, ds
	}
	idx := make([]int, len(ts.Tasks))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if c := CompareDigests(ds[a], ds[b]); c != 0 {
			return c
		}
		return a - b
	})
	out := Taskset{Tasks: make([]SporadicTask, len(idx))}
	digests := make([]TaskDigest, len(idx))
	for i, j := range idx {
		out.Tasks[i] = ts.Tasks[j]
		digests[i] = ds[j]
	}
	return out, digests
}

// CompareDigests orders task digests canonically: bytewise ascending.
func CompareDigests(a, b TaskDigest) int {
	return bytes.Compare(a[:], b[:])
}
