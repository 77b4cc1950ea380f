package rta

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/transform"
)

// BoundInput is what a Bound implementation gets to work with: the
// (transitively reduced) task graph, the target platform, and the iterated
// Algorithm 1 transformation, computed once by the caller and shared by
// every bound.
type BoundInput struct {
	// Graph is the task graph G, transitively reduced.
	Graph *dag.Graph
	// Platform is the execution platform under analysis.
	Platform platform.Platform
	// Transform is the paper's single-offload τ ⇒ τ' transformation, or
	// nil when the graph has no offload node or more than one. When
	// non-nil it is Multi.Steps[0].
	Transform *transform.Result
	// Multi is the iterated transformation gating every offloaded region,
	// or nil when the graph is homogeneous. The single-offload case is
	// Multi with one step.
	Multi *transform.MultiResult
}

// PrepareInput builds the platform-independent part of a BoundInput for g:
// a transitively reduced clone (g itself is not modified) and, when g has
// offloaded nodes, the iterated Algorithm 1 transformation. removed counts
// the edges the reduction dropped; the caller sets Platform.
func PrepareInput(g *dag.Graph) (in BoundInput, removed int, err error) {
	in.Graph = g.Clone()
	if removed, err = in.Graph.TransitiveReduction(); err != nil {
		return BoundInput{}, 0, err
	}
	if len(in.Graph.OffloadNodes()) > 0 {
		if in.Multi, err = transform.All(in.Graph); err != nil {
			return BoundInput{}, 0, err
		}
		if len(in.Multi.Steps) == 1 {
			in.Transform = in.Multi.Steps[0]
		}
	}
	return in, removed, nil
}

// BoundResult is one computed response-time bound inside a Report.
type BoundResult struct {
	// Name identifies the bound ("rhom", "rhet", ...).
	Name string `json:"name"`
	// Value is the response-time bound. Meaningless when Skipped is set.
	Value float64 `json:"value"`
	// Scenario is the Theorem 1 case label for Rhet-style bounds.
	Scenario string `json:"scenario,omitempty"`
	// Unsafe marks bounds that are NOT valid upper bounds (the §3.2 naive
	// reduction, kept for demonstration).
	Unsafe bool `json:"unsafe,omitempty"`
	// Skipped is a human-readable reason the bound did not apply to this
	// graph/platform combination (e.g. Rhet on a graph with no offload
	// node, or a node whose resource class has no machines). A skipped
	// bound is not an error: the rest of the report stands.
	Skipped string `json:"skipped,omitempty"`
	// Detail carries the named intermediate quantities of the bound
	// (len(G'), vol(GPar), ... for Rhet).
	Detail map[string]float64 `json:"detail,omitempty"`
}

// Bound is a pluggable response-time bound. Implementations must be safe
// for concurrent use: batch analyses call Compute from a worker pool.
//
// The built-in implementations are RhomBound (Eq. 1), RhetBound (Theorem
// 1), TypedRhomBound (the typed multi-offload/multi-class generalization),
// and NaiveBound (the unsafe §3.2 reduction). Each is one entry of
// Registry, which declares its crosscheck relation and admission safety.
type Bound interface {
	// Name is the stable identifier under which the result appears in a
	// report. Names must be unique within one bound set.
	Name() string
	// Compute evaluates the bound. Returning a BoundResult with Skipped
	// set records a benign non-applicability; returning an error aborts
	// the whole analysis.
	Compute(ctx context.Context, in BoundInput) (BoundResult, error)
}

// RhomBound returns the homogeneous bound of Equation 1, the baseline that
// treats offloaded work as host work. It applies to every graph; whether
// it is safe there is RhomSafeFor.
func RhomBound() Bound { return rhomBound{} }

type rhomBound struct{}

func (rhomBound) Name() string { return "rhom" }

func (rhomBound) Compute(_ context.Context, in BoundInput) (BoundResult, error) {
	return BoundResult{Name: "rhom", Value: Rhom(in.Graph, in.Platform)}, nil
}

// RhetBound returns the paper's heterogeneous bound (Theorem 1, Eqs. 2–4)
// on the transformed task τ'. It is skipped — with the reason recorded —
// when the graph has no offload node, has more than one (Theorem 1 is a
// single-offload analysis; TypedRhomBound covers the general case), or
// when the offloaded node's resource class has no machine on the platform;
// ties between scenarios 2.1 and 2.2 follow the rule documented on the
// Scenario type.
func RhetBound() Bound { return rhetBound{} }

type rhetBound struct{}

func (rhetBound) Name() string { return "rhet" }

func (rhetBound) Compute(_ context.Context, in BoundInput) (BoundResult, error) {
	if in.Transform == nil {
		switch n := len(in.Graph.OffloadNodes()); {
		case n == 0:
			return BoundResult{Name: "rhet", Skipped: "no offload node (homogeneous task)"}, nil
		case n > 1:
			return BoundResult{Name: "rhet", Skipped: fmt.Sprintf("%d offload nodes; Theorem 1 analyzes single-offload tasks (typed-rhom covers the general case)", n)}, nil
		default:
			return BoundResult{Name: "rhet", Skipped: "transformation unavailable"}, nil
		}
	}
	if cls := in.Graph.Class(in.Transform.Offload); in.Platform.Count(cls) < 1 {
		return BoundResult{Name: "rhet", Skipped: fmt.Sprintf(
			"offloaded node %d needs resource class %d (%s), which has no machine on %v",
			in.Transform.Offload, cls, in.Platform.ClassName(cls), in.Platform)}, nil
	}
	het, err := Rhet(in.Transform, in.Platform)
	if err != nil {
		return BoundResult{}, err
	}
	return BoundResult{
		Name:     "rhet",
		Value:    het.R,
		Scenario: het.Scenario.String(),
		Detail: map[string]float64{
			"lenPrime": float64(het.LenPrime),
			"volPrime": float64(het.VolPrime),
			"cOff":     float64(het.COff),
			"lenPar":   float64(het.LenPar),
			"volPar":   float64(het.VolPar),
			"rhomPar":  het.RhomPar,
		},
	}, nil
}

// TypedRhomBound returns the typed generalization of Equation 1 to any
// number of offloaded nodes spread over any number of device classes (the
// paper's future work (i)/(ii)). With no offload nodes it equals Rhom. It
// is skipped — naming the classes — when a node's resource class has no
// machine on the platform.
func TypedRhomBound() Bound { return typedRhomBound{} }

type typedRhomBound struct{}

func (typedRhomBound) Name() string { return "typed-rhom" }

func (typedRhomBound) Compute(_ context.Context, in BoundInput) (BoundResult, error) {
	if reason := missingClasses(in.Graph, in.Platform); reason != "" {
		return BoundResult{Name: "typed-rhom", Skipped: reason}, nil
	}
	v, err := TypedRhom(in.Graph, in.Platform)
	if err != nil {
		return BoundResult{}, err
	}
	return BoundResult{Name: "typed-rhom", Value: v}, nil
}

// missingClasses reports, per resource class, the nodes that cannot run on
// p because their class has no machine; empty when every class is covered.
// Sync nodes consume no resource and never count.
func missingClasses(g *dag.Graph, p platform.Platform) string {
	counts := map[int]int{}
	for n := range g.EachNode() {
		if n.Kind != dag.Sync && p.Count(n.Class) < 1 {
			counts[n.Class]++
		}
	}
	if len(counts) == 0 {
		return ""
	}
	classes := make([]int, 0, len(counts))
	for c := range counts { //lint:ordered sorted before use
		classes = append(classes, c)
	}
	sort.Ints(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%d node(s) need resource class %d (%s), which has no machine on %v",
			counts[c], c, p.ClassName(c), p))
	}
	return strings.Join(parts, "; ")
}

// NaiveBound returns the UNSAFE bound of Section 3.2 (Rhom with COff
// blindly subtracted from the self-interference factor). It is not a valid
// upper bound — its results carry Unsafe: true — and exists to let reports
// demonstrate why the transformation is necessary. Skipped on graphs
// without an offload node.
func NaiveBound() Bound { return naiveBound{} }

type naiveBound struct{}

func (naiveBound) Name() string { return "naive" }

func (naiveBound) Compute(_ context.Context, in BoundInput) (BoundResult, error) {
	if _, ok := in.Graph.OffloadNode(); !ok {
		return BoundResult{Name: "naive", Skipped: "no offload node", Unsafe: true}, nil
	}
	v, err := Naive(in.Graph, in.Platform)
	if err != nil {
		return BoundResult{}, err
	}
	return BoundResult{Name: "naive", Value: v, Unsafe: true}, nil
}
