package hetrta

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/taskset"
)

// Taskset is a system of sporadic DAG tasks sharing one execution platform;
// SporadicTask is one member τ = <G, T, D, J> (DAG, period, constrained
// deadline, release jitter). Tasksets are the unit the TasksetAnalyzer
// admits.
type Taskset = taskset.Taskset

// SporadicTask is the sporadic DAG task of the taskset model.
type SporadicTask = taskset.SporadicTask

// TasksetFingerprint is a taskset's canonical content hash: insensitive to
// task order and member-graph relabelings, sensitive to every
// analysis-relevant parameter. With TasksetAnalyzer.Signature it forms the
// admission cache key of the serving layer.
type TasksetFingerprint = taskset.Fingerprint

// ParseTasksetFingerprint parses the lower-case-hex form produced by
// TasksetFingerprint.String.
func ParseTasksetFingerprint(s string) (TasksetFingerprint, error) {
	return taskset.ParseFingerprint(s)
}

// TaskDigest is one task's 256-bit content hash (canonical graph
// fingerprint + sporadic parameters). Digest-equal tasks are
// interchangeable for analysis; digests key per-task eval caches and name
// tasks in TasksetDeltas.
type TaskDigest = taskset.TaskDigest

// ParseTaskDigest parses the lower-case-hex form produced by
// TaskDigest.String.
func ParseTaskDigest(s string) (TaskDigest, error) { return taskset.ParseTaskDigest(s) }

// TasksetDelta is an incremental edit against a base taskset (arrivals,
// digest-named departures, updates); TaskDeltaUpdate is one replacement.
// Applying a delta and re-admitting is byte-equivalent to admitting the
// full resulting set.
type TasksetDelta = taskset.Delta

// TaskDeltaUpdate replaces the task with digest Old by Task.
type TaskDeltaUpdate = taskset.TaskUpdate

// ErrInvalidInput marks errors caused by the caller's input (model
// validation failures, malformed deltas) as opposed to analysis or
// infrastructure faults. Test with errors.Is; serving layers map it to
// 400-class statuses.
var ErrInvalidInput = errors.New("invalid input")

// invalidInput wraps an input-shaped error without changing its message.
type invalidInput struct{ err error }

func (e invalidInput) Error() string { return e.err.Error() }

func (e invalidInput) Unwrap() error { return e.err }

func (e invalidInput) Is(target error) bool { return target == ErrInvalidInput }

// MarkInvalidInput wraps err so errors.Is(err, ErrInvalidInput) holds,
// preserving its message. A nil err returns nil.
func MarkInvalidInput(err error) error {
	if err == nil {
		return nil
	}
	return invalidInput{err: err}
}

// TasksetPolicy is a pluggable taskset schedulability test (a sufficient
// condition: admission certifies schedulability, rejection proves nothing).
type TasksetPolicy = taskset.Policy

// FederatedPolicy returns the federated-scheduling admission test: heavy
// tasks get minimal dedicated cores proven by the per-DAG bounds (with a
// per-class accelerator budget), light tasks share the remainder.
func FederatedPolicy() TasksetPolicy { return taskset.FederatedPolicy() }

// GlobalPolicy returns the global fixed-priority admission test: a
// response-time iteration with carry-in interference bounds, after the
// global sporadic-DAG analyses of Melani et al., Dinh et al., and
// Dong & Liu.
func GlobalPolicy() TasksetPolicy { return taskset.GlobalPolicy() }

// DefaultTasksetPolicies returns the policies a TasksetAnalyzer runs when
// WithTasksetPolicies is not given: federated and global.
func DefaultTasksetPolicies() []TasksetPolicy {
	return []TasksetPolicy{FederatedPolicy(), GlobalPolicy()}
}

// ErrNoSafeBound is wrapped by per-DAG bound evaluation when no safe,
// applicable bound exists for a task on a probed platform; policies report
// it as a per-task rejection, never a fatal admission error.
var ErrNoSafeBound = taskset.ErrNoSafeBound

// TasksetAnalyzer is the taskset-level counterpart of the Analyzer: wrap a
// per-DAG Analyzer once, then call Admit for each taskset. Each policy consumes the Analyzer's configured per-DAG Bounds
// (evaluated on the platform shapes the policy needs — dedicated-core
// slices for federated, the full platform for global). Immutable after
// construction and safe for concurrent use.
type TasksetAnalyzer struct {
	an       *Analyzer
	policies []TasksetPolicy
}

// TasksetOption configures a TasksetAnalyzer at construction time.
type TasksetOption func(*TasksetAnalyzer) error

// WithTasksetPolicies selects the admission policies each AdmitReport
// evaluates, in order. Names must be unique.
func WithTasksetPolicies(ps ...TasksetPolicy) TasksetOption {
	return func(ta *TasksetAnalyzer) error {
		if len(ps) == 0 {
			return fmt.Errorf("hetrta: WithTasksetPolicies needs at least one policy")
		}
		ta.policies = append([]TasksetPolicy(nil), ps...)
		return nil
	}
}

// NewTasksetAnalyzer builds a TasksetAnalyzer around a per-DAG Analyzer.
// The Analyzer contributes the platform and the bound set; its simulation
// and exact stages are not used by admission.
func NewTasksetAnalyzer(an *Analyzer, opts ...TasksetOption) (*TasksetAnalyzer, error) {
	if an == nil {
		return nil, fmt.Errorf("hetrta: NewTasksetAnalyzer(nil analyzer)")
	}
	ta := &TasksetAnalyzer{an: an, policies: DefaultTasksetPolicies()}
	for _, opt := range opts {
		if err := opt(ta); err != nil {
			return nil, err
		}
	}
	seen := map[string]bool{}
	for _, p := range ta.policies {
		if seen[p.Name()] {
			return nil, fmt.Errorf("hetrta: duplicate taskset policy %q", p.Name())
		}
		seen[p.Name()] = true
	}
	return ta, nil
}

// Platform returns the shared execution platform admissions are tested on.
func (ta *TasksetAnalyzer) Platform() Platform { return ta.an.Platform() }

// Signature returns a stable string identifying every configuration input
// that can influence an AdmitReport: the wrapped Analyzer's signature (its
// platform and bound set feed every per-DAG evaluation) plus the policy
// list. Two TasksetAnalyzers with equal signatures produce byte-identical
// reports for fingerprint-equal tasksets, so (Taskset.Fingerprint,
// Signature) is a sound admission cache key.
func (ta *TasksetAnalyzer) Signature() string {
	var b strings.Builder
	b.WriteString(ta.an.Signature())
	b.WriteString(";tspolicies=")
	for i, p := range ta.policies {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.Name())
	}
	return b.String()
}

// AdmitReport is the JSON-serializable outcome of one Admit call. Tasks and
// all per-task decisions are reported in the taskset's canonical order
// (ascending per-task digest), which makes the report — and therefore the
// serving layer's cached bytes — invariant under permutations of the input
// and relabelings of the member graphs.
type AdmitReport struct {
	// Platform is the shared execution platform.
	Platform Platform `json:"platform"`
	// Fingerprint is the taskset's canonical content hash.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Taskset summarizes the system; Tasks describes each member in
	// canonical order.
	Taskset TasksetSummary     `json:"taskset"`
	Tasks   []AdmitTaskSummary `json:"tasks,omitempty"`
	// Policies holds one verdict per configured policy, in order. Each is
	// a sufficient test, so Admitted is their disjunction: one certifying
	// policy is enough.
	Policies []taskset.PolicyResult `json:"policies,omitempty"`
	Admitted bool                   `json:"admitted"`
}

// TasksetSummary captures the taskset's headline metrics.
type TasksetSummary struct {
	// Tasks is the member count; Offloading counts members with at least
	// one offloaded node.
	Tasks      int `json:"tasks"`
	Offloading int `json:"offloading"`
	// Utilization is Σ vol_i/T_i.
	Utilization float64 `json:"utilization"`
}

// AdmitTaskSummary describes one member task (canonical order).
type AdmitTaskSummary struct {
	Task         int     `json:"task"`
	Nodes        int     `json:"nodes"`
	Volume       int64   `json:"volume"`
	CriticalPath int64   `json:"criticalPath"`
	Offloads     int     `json:"offloads"`
	Period       int64   `json:"period"`
	Deadline     int64   `json:"deadline"`
	Jitter       int64   `json:"jitter,omitempty"`
	Utilization  float64 `json:"utilization"`
}

// TaskEvalHandle is one task's reusable evaluation state: the per-DAG
// bound evaluator over the Analyzer's bounds (reduction and Algorithm 1
// done once), with the report summary precomputed and every bound probe
// memoized per platform shape. Handles are what delta admission shares
// across calls — re-admitting a set whose task was already evaluated
// replays the memoized bounds instead of re-running the analyses,
// bit-identically. Safe for concurrent use; obtain one from
// PrepareTaskEval.
type TaskEvalHandle = taskset.Eval

// PrepareTaskEval builds the reusable evaluation handle for one task graph:
// clone, transitive reduction, Algorithm 1 when offloads exist, and the
// report summary. The input graph is not modified or retained.
func (ta *TasksetAnalyzer) PrepareTaskEval(g *Graph) (*TaskEvalHandle, error) {
	return taskset.NewEval(ta.an.bounds, g)
}

// TaskEvalSource supplies the evaluation handle for one (canonical) task —
// freshly prepared, or recovered from a cache keyed by the digest. It is
// called once per task in canonical order.
type TaskEvalSource func(ctx context.Context, t SporadicTask, digest TaskDigest) (*TaskEvalHandle, error)

// Admit evaluates every configured policy on one taskset and returns its
// AdmitReport. The input graphs are not modified (analysis runs on reduced
// clones); the report is permutation-invariant (see AdmitReport).
// Cancelling ctx aborts promptly with the context's error. Validation
// failures satisfy errors.Is(err, ErrInvalidInput).
func (ta *TasksetAnalyzer) Admit(ctx context.Context, ts Taskset) (*AdmitReport, error) {
	return ta.AdmitPrepared(ctx, ts, nil, func(ctx context.Context, t SporadicTask, _ TaskDigest) (*TaskEvalHandle, error) {
		return ta.PrepareTaskEval(t.G)
	})
}

// AdmitPrepared is Admit with the per-task evaluation source pluggable —
// the incremental path under delta admission. With a source that returns
// cached handles, only the delta's tasks pay for bound evaluation; the
// report is byte-identical to a from-scratch Admit of the same set either
// way, because handles memoize pure per-platform values and every policy
// is a pure function of its input.
//
// The per-task digests ds (parallel to ts.Tasks) are optional: the delta
// path resolves them from its base entry's bookkeeping, so
// canonicalization re-hashes nothing. A nil or mismatched-length ds is
// computed from scratch.
func (ta *TasksetAnalyzer) AdmitPrepared(ctx context.Context, ts Taskset, ds []TaskDigest, src TaskEvalSource) (*AdmitReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ts.Validate(); err != nil {
		return nil, MarkInvalidInput(err)
	}
	var canon Taskset
	var digests []TaskDigest
	if len(ds) == len(ts.Tasks) {
		canon, digests = ts.CanonicalWithGivenDigests(ds)
	} else {
		canon, digests = ts.CanonicalWithDigests()
	}
	p := ta.an.Platform()

	rep := &AdmitReport{
		Platform:    p,
		Fingerprint: taskset.FingerprintFromDigests(digests).String(),
		Taskset: TasksetSummary{
			Tasks: len(canon.Tasks),
		},
		Tasks: make([]AdmitTaskSummary, len(canon.Tasks)),
	}
	evals := make([]*taskset.Eval, len(canon.Tasks))
	for i, t := range canon.Tasks {
		h, err := src(ctx, t, digests[i])
		if err != nil {
			return nil, fmt.Errorf("hetrta: taskset task %d: %w", i, err)
		}
		evals[i] = h
		sum := h.Summary()
		if sum.Offloads > 0 {
			rep.Taskset.Offloading++
		}
		// Summing in canonical order is exactly what canon.Utilization()
		// does, and the summary's volume is the graph's, so the total is
		// bit-identical.
		u := sum.Utilization(t.Period)
		rep.Taskset.Utilization += u
		rep.Tasks[i] = AdmitTaskSummary{
			Task:         i,
			Nodes:        sum.Nodes,
			Volume:       sum.Volume,
			CriticalPath: sum.CriticalPath,
			Offloads:     sum.Offloads,
			Period:       t.Period,
			Deadline:     t.Deadline,
			Jitter:       t.Jitter,
			Utilization:  u,
		}
	}

	in := taskset.AdmitInput{Set: canon, Platform: p, Evals: evals}
	for _, pol := range ta.policies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := pol.Admit(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("hetrta: taskset policy %q: %w", pol.Name(), err)
		}
		rep.Policies = append(rep.Policies, *res)
		if res.Admitted {
			rep.Admitted = true
		}
	}
	return rep, nil
}
