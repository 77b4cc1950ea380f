package hetrta

import "repro/internal/rta"

// BoundInput is what a Bound implementation gets to work with: the
// (transitively reduced) task graph, the target platform, and the iterated
// Algorithm 1 transformation, computed once by the Analyzer and shared by
// every bound.
type BoundInput = rta.BoundInput

// BoundResult is one computed response-time bound inside a Report.
type BoundResult = rta.BoundResult

// Bound is a pluggable response-time bound. Implementations must be safe
// for concurrent use: AnalyzeBatch calls Compute from its worker pool.
// The built-ins and their registry live in internal/rta; future analyses —
// e.g. the long-path bounds of He et al. — are one entry there.
type Bound = rta.Bound

// DefaultBounds returns the bounds an Analyzer computes when WithBounds is
// not given: Rhom (the homogeneous baseline) and Rhet (the paper's
// heterogeneous bound).
func DefaultBounds() []Bound { return []Bound{RhomBound(), RhetBound()} }

// RhomBound returns the homogeneous bound of Equation 1, the baseline that
// treats offloaded work as host work. It applies to every graph.
func RhomBound() Bound { return rta.RhomBound() }

// RhetBound returns the paper's heterogeneous bound (Theorem 1, Eqs. 2–4)
// on the transformed task τ', skipped with the reason recorded off the
// single-offload model or when the offloaded node's class has no machine.
func RhetBound() Bound { return rta.RhetBound() }

// TypedRhomBound returns the typed generalization of Equation 1 to tasks
// whose nodes are spread over any number of resource classes (the paper's
// future work (i) and (ii)):
//
//	R ≤ Σ_c vol_c/m_c + max over paths λ of Σ_{v∈λ} C_v·(1 − 1/m_cls(v)).
//
// With no offloaded nodes it equals Rhom. It is skipped when a node's
// class has no machine.
func TypedRhomBound() Bound { return rta.TypedRhomBound() }

// NaiveBound returns the UNSAFE bound of Section 3.2, kept to demonstrate
// why the transformation is necessary; its results carry Unsafe: true.
func NaiveBound() Bound { return rta.NaiveBound() }
