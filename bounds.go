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

// TypedRhomBound returns the typed generalization of Equation 1 to any
// number of offloaded nodes over any number of device classes (see
// extensions.go), skipped when a node's class has no machine.
func TypedRhomBound() Bound { return rta.TypedRhomBound() }

// NaiveBound returns the UNSAFE bound of Section 3.2, kept to demonstrate
// why the transformation is necessary; its results carry Unsafe: true.
func NaiveBound() Bound { return rta.NaiveBound() }

// LatticeRelation names the dominance relation a registered bound
// maintains with the simulated makespan.
type LatticeRelation = rta.Relation

// Dominance relations of the bound registry.
const (
	BoundsSim            = rta.BoundsSim
	BoundsSimTransformed = rta.BoundsSimTransformed
	UnsafeDemo           = rta.UnsafeDemo
)

// LatticeEntry is one bound's registry declaration: constructor, relation,
// safety restriction and note.
type LatticeEntry = rta.RegistryEntry

// BoundLattice is the bound registry (rta.Registry) the cross-validation
// sweep iterates and admission reads.
var BoundLattice = rta.Registry

// LatticeNames returns the registered bound names in sorted order.
func LatticeNames() []string { return rta.RegistryNames() }
