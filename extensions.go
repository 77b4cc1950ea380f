package hetrta

import (
	"repro/internal/rta"
	"repro/internal/transform"
)

// This file exposes the extensions beyond the paper's core model: the
// Section 7 generalizations (multiple offloaded nodes, multiple devices,
// multiple device classes), which the core pipeline now carries end to
// end. Federated scheduling of tasksets is FederatedPolicy, run by a
// TasksetAnalyzer.

// TypedRhomOn generalizes Equation 1 to tasks whose nodes are spread over
// any number of resource classes (the paper's future work (i) and (ii)):
//
//	R ≤ Σ_c vol_c/m_c + max over paths λ of Σ_{v∈λ} C_v·(1 − 1/m_cls(v)).
//
// With no offloaded nodes it equals Rhom. TypedRhomBound exposes the same
// analysis as a pluggable Analyzer bound.
func TypedRhomOn(g *Graph, p Platform) (float64, error) { return rta.TypedRhom(g, p) }

// MultiTransformation is the result of gating every offloaded node with a
// synchronization point (iterated Algorithm 1). Its Steps hold the
// per-offload Algorithm 1 results; for a single-offload task Steps[0] is
// exactly the paper's Transformation.
type MultiTransformation = transform.MultiResult

// TransformAll applies Algorithm 1 iteratively around every offloaded node
// in descending-COff order. Like Transform, the input must be transitively
// reduced; the single-offload case is the k = 1 instance.
func TransformAll(g *Graph) (*MultiTransformation, error) { return transform.All(g) }

// CheckTransformAll verifies that every original precedence constraint of
// g survives in the multi-transformed graph and that each offload node is
// gated by its synchronization node.
func CheckTransformAll(g *Graph, r *MultiTransformation) error { return transform.CheckAll(g, r) }
