package taskset

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/rta"
)

// ErrNoSafeBound is wrapped by TaskEval.Bound when no safe analysis applies
// to the task's DAG on the probed platform (e.g. a multi-offload task whose
// classes are only partially backed by machines: Rhom is out per
// rta.RhomSafeFor, Rhet needs a single offload, TypedRhom needs every class
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
// volumes of the task's graph, bucketed for platform p as ClassVolumes
// does, which the Global policy calls itself when the eval does not
// implement this. Implementations may memoize per platform shape; the
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
	// Utils, when non-nil, is parallel to Set.Tasks and carries each task's
	// Utilization() value so policies that report it per decision do not
	// take the graph property lock again. It is an acceleration hint, never
	// an input: the values are exactly what Utilization() returns, and
	// policies must behave identically with or without it.
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

// BoundEval is the TaskEval over a bound list: the minimum over the bounds
// that apply (did not skip themselves), are not unsafe demonstrations, and
// are admission-safe for the task on the probed platform (rta.AdmissionSafe,
// read from the bound registry). The platform-independent prefix — clone,
// transitive reduction, iterated Algorithm 1 — runs once at construction
// and is shared by every Bound call. The facade's TaskEvalHandle wraps one
// over its Analyzer's bounds; NewRTAEval is the acceptance-ratio sweep's.
type BoundEval struct {
	bounds []rta.Bound
	in     rta.BoundInput // Platform is set per Bound call
	err    error
}

// NewBoundEval prepares the evaluation of g over bounds (rta.PrepareInput).
// A preparation failure (nil or cyclic graph) is returned by Err and by
// every Bound call.
func NewBoundEval(bounds []rta.Bound, g *dag.Graph) *BoundEval {
	e := &BoundEval{bounds: bounds, err: fmt.Errorf("taskset: nil graph")}
	if g != nil {
		e.in, _, e.err = rta.PrepareInput(g)
	}
	return e
}

// NewRTAEval is the default TaskEval for g, used by the acceptance-ratio
// sweep and anyone without a facade analyzer: the BoundEval over Rhom,
// Rhet and TypedRhom.
func NewRTAEval(g *dag.Graph) *BoundEval {
	return NewBoundEval([]rta.Bound{rta.RhomBound(), rta.RhetBound(), rta.TypedRhomBound()}, g)
}

// Err returns the preparation failure, if any.
func (e *BoundEval) Err() error { return e.err }

// Graph returns the transitively reduced clone the bounds evaluate (nil
// after a preparation failure).
func (e *BoundEval) Graph() *dag.Graph { return e.in.Graph }

// Bound implements TaskEval.
func (e *BoundEval) Bound(ctx context.Context, p platform.Platform) (float64, error) {
	if e.err != nil {
		return 0, e.err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if p.Cores() < 1 {
		return 0, fmt.Errorf("taskset: bound on %v: no host cores", p)
	}
	in := e.in
	in.Platform = p
	best := math.Inf(1)
	for _, b := range e.bounds {
		res, err := b.Compute(ctx, in)
		if err != nil {
			return 0, fmt.Errorf("taskset: bound %q: %w", b.Name(), err)
		}
		if res.Skipped != "" || res.Unsafe || !rta.AdmissionSafe(res.Name, in.Graph, p) {
			continue
		}
		best = math.Min(best, res.Value)
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("taskset: %w on %v", ErrNoSafeBound, p)
	}
	return best, nil
}

// ClassVolumes returns g's per-class WCET volumes bucketed for p: work of
// a class with no machines on p, or of the host class, lands in bucket 0 —
// it can only execute there.
func ClassVolumes(g *dag.Graph, p platform.Platform) []float64 {
	nC := p.NumClasses()
	v := make([]float64, nC)
	for n := range g.EachNode() {
		c := n.Class
		if c < 1 || c >= nC || p.Count(c) < 1 {
			c = 0
		}
		v[c] += float64(n.WCET)
	}
	return v
}

// checkGraphs rejects a taskset with a graph-less task, naming the task:
// the policies read every task's graph.
func checkGraphs(policy string, ts Taskset) error {
	for i, t := range ts.Tasks {
		if t.G == nil {
			return fmt.Errorf("taskset: %s: task %d: nil graph", policy, i)
		}
	}
	return nil
}
