package taskset

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/rta"
	"repro/internal/transform"
)

// ErrNoSafeBound is wrapped by TaskEval.Bound when no safe analysis applies
// to the task's DAG on the probed platform (e.g. a multi-offload task whose
// classes are only partially backed by machines: Rhom is out per
// RhomSafeFor, Rhet needs a single offload, TypedRhom needs every class
// populated). Policies treat it as a per-task rejection — the task cannot
// be certified on that platform — never as a fatal admission error.
var ErrNoSafeBound = errors.New("no safe response-time bound applies")

// TaskEval computes safe per-DAG response-time bounds of one task's graph
// on arbitrary platform shapes. Policies probe it with the platforms their
// analysis needs (federated: dedicated-core slices; global: the full
// platform). Implementations may cache platform-independent work (the
// reduced graph, the Algorithm 1 transformation) across calls; they need
// not be safe for concurrent use — each Admit call owns its evals.
type TaskEval interface {
	// Bound returns a safe response-time bound for the task's DAG executing
	// alone on p: the minimum over whichever safe analyses apply. An error
	// means no safe analysis applies (never "the task misses its deadline" —
	// deadlines are the policies' business).
	Bound(ctx context.Context, p platform.Platform) (float64, error)
}

// ClassVolumeSource is an optional TaskEval extension: per-class WCET
// volumes of the task's graph, bucketed for platform p — work of a class
// with no machines on p (or of the host class) lands in bucket 0, exactly
// the bucketing the Global policy computes for itself when the eval does
// not implement this. Implementations may memoize per platform shape; the
// returned slice is read-only to the caller and must stay valid for the
// policy call.
type ClassVolumeSource interface {
	ClassVolumes(p platform.Platform) []float64
}

// AdmitInput is what a Policy gets to work with: the (canonically ordered)
// taskset, the shared platform, and one TaskEval per task.
type AdmitInput struct {
	Set      Taskset
	Platform platform.Platform
	// Evals is parallel to Set.Tasks.
	Evals []TaskEval
	// Digests, when non-nil, is parallel to Set.Tasks and carries each
	// task's content digest so policies can key incremental caches without
	// re-hashing graphs. Policies must behave identically with or without
	// it — it is an acceleration hint, never an input.
	Digests []TaskDigest
	// GlobalSteps, when non-nil (and Digests is supplied), lets the Global
	// policy replay per-task fixpoint iterations memoized across Admit
	// calls. Results are byte-identical either way.
	GlobalSteps *GlobalStepCache
	// Utils, when non-nil, is parallel to Set.Tasks and carries each task's
	// Utilization() value so policies that report it per decision do not
	// take the graph property lock again. Same acceleration-hint contract
	// as Digests: the values are exactly what Utilization() returns.
	Utils []float64
}

// util returns task i's utilization, from the precomputed hint if present.
func (in *AdmitInput) util(i int) float64 {
	if in.Utils != nil {
		return in.Utils[i]
	}
	return in.Set.Tasks[i].Utilization()
}

// TaskDecision is one task's outcome under a policy, shaped for the JSON
// AdmitReport.
type TaskDecision struct {
	// Task indexes the (canonical) taskset.
	Task int `json:"task"`
	// Admitted says the policy certified this task; Reason explains a
	// negative (or qualifies a positive, e.g. "shared partition").
	Admitted bool   `json:"admitted"`
	Reason   string `json:"reason,omitempty"`
	// R is the response-time bound the decision used (0 when none was
	// reached).
	R float64 `json:"r,omitempty"`
	// Utilization is vol/T.
	Utilization float64 `json:"utilization"`
	// Cores is the dedicated host-core grant (federated heavy tasks).
	Cores int `json:"cores,omitempty"`
	// Heavy marks federated tasks with utilization > 1.
	Heavy bool `json:"heavy,omitempty"`
	// UsesDevice says the admitting analysis assumed exclusive accelerator
	// access (federated); DeviceClasses lists the granted classes.
	UsesDevice    bool  `json:"usesDevice,omitempty"`
	DeviceClasses []int `json:"deviceClasses,omitempty"`
}

// PolicyResult is a policy's verdict on a whole taskset.
type PolicyResult struct {
	// Policy is the policy name ("federated", "global").
	Policy string `json:"policy"`
	// Admitted says the taskset is schedulable under this policy's
	// (sufficient) test; Reason explains a rejection.
	Admitted bool   `json:"admitted"`
	Reason   string `json:"reason,omitempty"`
	// Tasks holds one decision per task, in taskset order.
	Tasks []TaskDecision `json:"tasks,omitempty"`
	// DedicatedCores / SharedCores summarize the federated partition.
	DedicatedCores int `json:"dedicatedCores,omitempty"`
	SharedCores    int `json:"sharedCores,omitempty"`
	// Iterations counts global response-time fixpoint iterations.
	Iterations int `json:"iterations,omitempty"`
}

// Policy is a pluggable taskset schedulability test. Implementations must
// be stateless values (safe for concurrent use across Admit calls).
type Policy interface {
	// Name is the stable identifier under which the result appears in an
	// AdmitReport. Names must be unique within one analyzer.
	Name() string
	// Admit evaluates the test. A non-admission is NOT an error: it is
	// reported in the PolicyResult. Errors are reserved for broken input or
	// failing bound computations.
	Admit(ctx context.Context, in AdmitInput) (*PolicyResult, error)
}

// rtaEval is the default TaskEval used by the acceptance-ratio sweep and
// anyone without a facade analyzer: the minimum over Rhom (offloaded work
// as host work, where safe — see RhomSafeFor and DESIGN.md §4.3), Rhet
// (single-offload tasks whose device class has a machine), and TypedRhom
// (when every populated class has a machine).
// Platform-independent work (transitive reduction, Algorithm 1) is computed
// once and reused across Bound calls.
//
// The applicability conditions here deliberately mirror the Skipped
// conditions of the facade's pluggable bounds (bounds.go: rhetBound /
// typedRhomBound) — the facade's facadeEval evaluates those and this type
// hand-inlines them, because this package sits below the facade and cannot
// import its Bound set. A change to either side's applicability rules must
// be mirrored in the other, or the sweep and the facade diverge.
type rtaEval struct {
	work  *dag.Graph
	multi *transform.MultiResult
	err   error
}

// PrepareDAG clones and transitively reduces g and computes the iterated
// Algorithm 1 transformation when offloaded nodes exist — the
// platform-independent prefix shared by every TaskEval implementation
// (rtaEval here, the facade's bound-set eval in the root package). multi
// is nil for homogeneous graphs.
func PrepareDAG(g *dag.Graph) (work *dag.Graph, multi *transform.MultiResult, err error) {
	if g == nil {
		return nil, nil, fmt.Errorf("taskset: nil graph")
	}
	work = g.Clone()
	if _, err := work.TransitiveReduction(); err != nil {
		return nil, nil, err
	}
	if len(work.OffloadNodes()) > 0 {
		multi, err = transform.All(work)
		if err != nil {
			return nil, nil, err
		}
	}
	return work, multi, nil
}

// NewRTAEval builds the default TaskEval for g. The graph is cloned and
// transitively reduced once; the transformation is computed once.
func NewRTAEval(g *dag.Graph) TaskEval {
	e := &rtaEval{}
	e.work, e.multi, e.err = PrepareDAG(g)
	return e
}

func (e *rtaEval) Bound(ctx context.Context, p platform.Platform) (float64, error) {
	if e.err != nil {
		return 0, e.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if p.Cores() < 1 {
		return 0, fmt.Errorf("taskset: bound on %v: no host cores", p)
	}
	best := math.Inf(1)
	if AdmissionSafe("rhom", e.work, p) {
		best = rta.Rhom(e.work, p)
	}
	if e.multi != nil && len(e.multi.Steps) == 1 {
		step := e.multi.Steps[0]
		if p.Count(e.work.Class(step.Offload)) >= 1 {
			het, err := rta.Rhet(step, p)
			if err != nil {
				return 0, err
			}
			best = math.Min(best, het.R)
		}
	}
	if typedApplies(e.work, p) {
		v, err := rta.TypedRhom(e.work, p)
		if err != nil {
			return 0, err
		}
		best = math.Min(best, v)
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("taskset: %w on %v", ErrNoSafeBound, p)
	}
	return best, nil
}

// RhomSafeFor reports whether the homogeneous bound Rhom is a safe
// response-time bound for g executing on p. It is safe on the paper's
// model (at most one offload node — the device then never serializes
// offloaded work) and whenever none of g's offload classes has a machine
// on p (the work necessarily executes on the host, which is exactly what
// Rhom models). With k ≥ 2 offload nodes contending for devices it is NOT
// safe: the cross-validation sweep (crosscheck_test.go) exhibits simulated
// heterogeneous makespans above len + (vol − len)/m, because Graham's
// argument cannot charge device-serialized work against the m host cores.
// TypedRhom is the safe bound there.
func RhomSafeFor(g *dag.Graph, p platform.Platform) bool {
	offs := g.OffloadNodes()
	if len(offs) <= 1 {
		return true
	}
	for _, v := range offs {
		if p.Count(g.Class(v)) >= 1 {
			return false
		}
	}
	return true
}

// typedApplies reports whether every resource-consuming node's class has a
// machine on p, the applicability condition of TypedRhom.
func typedApplies(g *dag.Graph, p platform.Platform) bool {
	for n := range g.EachNode() {
		if n.Kind == dag.Sync && n.WCET == 0 {
			continue
		}
		if p.Count(n.Class) < 1 {
			return false
		}
	}
	return true
}
