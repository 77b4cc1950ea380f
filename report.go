package hetrta

// Report is the JSON-serializable outcome of one Analyzer.Analyze call: the
// graph's metrics, every requested bound, the Algorithm 1 transformation
// summary, and — when the Analyzer was configured for them — simulation and
// exact-oracle results. Rich in-memory objects (the transformation, full
// simulation schedules, the exact schedule) ride along in fields excluded
// from JSON so CLI front-ends can render Gantt charts without
// recomputing. They are for in-process callers of Analyze: the serving
// layer never retains them, and every report it hands out carries only
// the JSON-visible fields, as DecodeReport returns them.
//
// The JSON form is a stable wire format with two guarantees the serving
// layer (internal/service, cmd/dagrtad) builds on: marshaling is
// deterministic — analyzing equal graphs under Analyzers with equal
// Signatures yields byte-identical JSON (map-valued fields marshal with
// sorted keys) — and the JSON-visible fields round-trip losslessly through
// encoding/json. Both are pinned by golden files under testdata/golden
// (regenerate deliberate changes with `go test -run TestReportGolden
// -update .`).
type Report struct {
	// Platform is the execution platform the report was computed for.
	Platform Platform `json:"platform"`
	// Graph summarizes the analyzed task graph (after transitive
	// reduction).
	Graph GraphSummary `json:"graph"`
	// Bounds holds one entry per configured Bound, in WithBounds order.
	Bounds []BoundResult `json:"bounds"`
	// Transform summarizes τ ⇒ τ' when the graph has exactly one offload
	// node (the paper's model).
	Transform *TransformSummary `json:"transform,omitempty"`
	// Transforms lists one summary per offloaded region, in the order the
	// iterated Algorithm 1 gated them (descending COff). Present whenever
	// the graph has at least one offload node — for single-offload tasks it
	// has one entry mirroring Transform, so batch consumers can treat every
	// heterogeneous task uniformly.
	Transforms []TransformStepSummary `json:"transforms,omitempty"`
	// Simulation is present when the Analyzer has a policy (WithPolicy).
	Simulation *SimulationReport `json:"simulation,omitempty"`
	// Exact is present when the Analyzer has an exact budget
	// (WithExactBudget).
	Exact *ExactReport `json:"exact,omitempty"`
	// Degraded marks a report produced under graceful degradation: the
	// exact stage was skipped (breaker open, known-hard instance) or came
	// back without an optimality certificate (expansion budget or deadline
	// slice exhausted). Everything else in the report — bounds,
	// transformation, simulation — is computed normally and remains safe;
	// only the exact certificate is missing or unproven. DegradedReason is
	// the machine-readable cause, one of the Degraded* constants.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`
	// Err records the per-graph failure inside an AnalyzeBatch, which
	// reports errors item-by-item instead of failing the whole batch. A
	// report with Err set has no other fields populated beyond Platform.
	Err string `json:"error,omitempty"`

	// TransformResult is the full transformation behind Transform (nil
	// unless the graph has exactly one offload node).
	TransformResult *Transformation `json:"-"`
	// MultiTransformResult is the full iterated transformation behind
	// Transforms (non-nil whenever the graph has at least one offload
	// node); its final graph backs SimTransformed.
	MultiTransformResult *MultiTransformation `json:"-"`
	// SimOriginal and SimTransformed are the full schedules behind
	// Simulation (SimTransformed is nil when there is no transformation).
	SimOriginal    *SimResult `json:"-"`
	SimTransformed *SimResult `json:"-"`
	// ExactResult is the full oracle outcome behind Exact.
	ExactResult *ExactResult `json:"-"`
}

// GraphSummary captures the analyzed graph's headline metrics.
type GraphSummary struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// ReducedEdges counts redundant edges removed by the transitive
	// reduction the Analyzer applies before analysis.
	ReducedEdges int   `json:"reducedEdges,omitempty"`
	Volume       int64 `json:"volume"`
	// CriticalPath is len(G).
	CriticalPath int64 `json:"criticalPath"`
	// Offload describes vOff for single-offload graphs; nil for
	// homogeneous graphs. Multi-offload graphs describe every offloaded
	// region in Report.Transforms instead.
	Offload *OffloadSummary `json:"offload,omitempty"`
	// Offloads is the number of offload nodes (0, 1, or more).
	Offloads int `json:"offloads"`
}

// OffloadSummary describes the accelerator workload vOff.
type OffloadSummary struct {
	Node int    `json:"node"`
	Name string `json:"name,omitempty"`
	COff int64  `json:"cOff"`
	// Frac is COff / vol(G).
	Frac float64 `json:"frac"`
}

// TransformSummary captures the structural outcome of Algorithm 1.
type TransformSummary struct {
	// Sync is the ID of the inserted vsync node in the transformed graph.
	Sync int `json:"sync"`
	// LenPrime and VolPrime are len(G') and vol(G').
	LenPrime int64 `json:"lenPrime"`
	VolPrime int64 `json:"volPrime"`
	// ParNodes lists GPar's nodes (original IDs); LenPar/VolPar are its
	// critical path and volume.
	ParNodes []int `json:"parNodes"`
	LenPar   int64 `json:"lenPar"`
	VolPar   int64 `json:"volPar"`
}

// TransformStepSummary describes one step of the iterated Algorithm 1: the
// offloaded region it gated and the parallel sub-DAG guaranteed to overlap
// it.
type TransformStepSummary struct {
	// Offload is the offloaded node's ID (original graph IDs survive every
	// step); Name is its label and Class its device resource class.
	Offload int    `json:"offload"`
	Name    string `json:"name,omitempty"`
	Class   int    `json:"class,omitempty"`
	// COff is the offloaded node's WCET.
	COff int64 `json:"cOff"`
	// Sync is the synchronization node this step inserted; Gate is the
	// offload's final gate in the fully transformed graph (a later step may
	// re-parent an earlier offload under its own vsync).
	Sync int `json:"sync"`
	Gate int `json:"gate"`
	// LenPar and VolPar are len(GPar) and vol(GPar) of this step.
	LenPar int64 `json:"lenPar"`
	VolPar int64 `json:"volPar"`
}

// SimulationReport captures the discrete-event simulation results.
type SimulationReport struct {
	// Policy is the scheduling policy name.
	Policy string `json:"policy"`
	// Makespan is the simulated response of the original task τ.
	Makespan int64 `json:"makespan"`
	// MakespanTransformed is the simulated response of τ'; 0 when no
	// transformation applies.
	MakespanTransformed int64 `json:"makespanTransformed,omitempty"`
}

// ExactReport captures the exact-oracle outcome.
type ExactReport struct {
	// Makespan is the best makespan found for τ.
	Makespan int64 `json:"makespan"`
	// Status is "optimal" or "feasible" (budget expired).
	Status string `json:"status"`
	// LowerBound is a proven lower bound on the optimum.
	LowerBound int64 `json:"lowerBound"`
	// Expansions is the branch-and-bound effort spent.
	Expansions int64 `json:"expansions"`
}

// Bound returns the named bound's result, if present.
func (r *Report) Bound(name string) (BoundResult, bool) {
	for _, b := range r.Bounds {
		if b.Name == name {
			return b, true
		}
	}
	return BoundResult{}, false
}

// BoundValue returns the named bound's value; ok is false when the bound is
// absent or was skipped.
func (r *Report) BoundValue(name string) (float64, bool) {
	b, found := r.Bound(name)
	if !found || b.Skipped != "" {
		return 0, false
	}
	return b.Value, true
}

// Schedulable reports whether the named bound certifies the deadline
// (bound ≤ deadline, equality schedulable); ok is false when the bound is
// absent, skipped, or unsafe (an unsafe bound certifies nothing). A
// non-positive deadline is compared like any other: no special casing, so
// a zero bound meets a zero deadline.
func (r *Report) Schedulable(name string, deadline int64) (schedulable, ok bool) {
	b, found := r.Bound(name)
	if !found || b.Skipped != "" || b.Unsafe {
		return false, false
	}
	return b.Value <= float64(deadline), true
}
