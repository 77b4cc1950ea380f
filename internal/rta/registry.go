package rta

import (
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
)

// Relation names the dominance relation a registered bound maintains with
// the simulated makespan — the property the cross-validation sweep
// (crosscheck_test.go at the module root) asserts over hundreds of random
// instances.
type Relation string

const (
	// BoundsSim: simulated makespan ≤ bound value on every instance where
	// the bound applies (did not skip itself) and SafeFor holds.
	BoundsSim Relation = "bounds-sim"
	// BoundsSimTransformed: the bound upper-bounds the simulated makespan
	// of the *transformed* task τ′ (the sync-enforcing runtime), not of
	// the original graph.
	BoundsSimTransformed Relation = "bounds-sim-transformed"
	// UnsafeDemo: the value is NOT an upper bound. It is never asserted as
	// one and never enters admission minima; the sweep instead checks its
	// documented relation to the baseline (naive ≤ rhom: the §3.2
	// reduction only ever subtracts).
	UnsafeDemo Relation = "unsafe-demo"
)

// RegistryEntry is one bound's declaration: how to build it, what it
// bounds, and where that holds.
type RegistryEntry struct {
	// New returns a fresh instance of the bound, so sweeps and tools can
	// instantiate the full registered set.
	New func() Bound
	// Relation is the asserted dominance relation.
	Relation Relation
	// SafeFor restricts where the bound is safe, beyond its own skips:
	// both the crosscheck sweep's upper-bound assertion and admission
	// minima apply it. nil means safe wherever the bound applies.
	SafeFor func(g *dag.Graph, p platform.Platform) bool
	// Note records the argument behind the relation (or the
	// counterexample reference).
	Note string
}

// Registry is the one bound table: every Bound implementation in the
// module lives in this package and appears here under its Name(),
// machine-checked by the boundreg analyzer (cmd/hetrtalint). The
// cross-validation sweep iterates it, and admission reads it through
// AdmissionSafe. A bound absent from it is a bound no sweep ever compared
// against the simulated makespan and that never certifies a task — the
// failure mode that once let Rhom into multi-offload admission minima
// (DESIGN.md §10.3).
//
//hetrta:registry bounds
var Registry = map[string]RegistryEntry{
	"rhom": {
		New:      RhomBound,
		Relation: BoundsSim,
		SafeFor:  RhomSafeFor,
		Note:     "Eq. 1 baseline; Graham bound, safe on ≤1 offload or when no offload class has a machine; k≥2 offloads serializing on a device break the charging argument (DESIGN.md §4.3)",
	},
	"rhet": {
		New:      RhetBound,
		Relation: BoundsSimTransformed,
		Note:     "Theorem 1 bounds the transformed task τ′ the sync-enforcing runtime executes; skips itself off the single-offload model",
	},
	"typed-rhom": {
		New:      TypedRhomBound,
		Relation: BoundsSim,
		Note:     "typed multi-offload generalization of Eq. 1; safe whenever it applies (every populated class has a machine)",
	},
	"naive": {
		New:      NaiveBound,
		Relation: UnsafeDemo,
		Note:     "§3.2 reduction; not an upper bound — the sweep checks naive ≤ rhom, never sim ≤ naive",
	},
}

// RegistryNames returns the registered bound names in sorted order.
func RegistryNames() []string {
	names := make([]string, 0, len(Registry))
	for name := range Registry { //lint:ordered sorted before returning
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// AdmissionSafe reports whether the bound named name may enter admission
// minima for g on p. Unknown names are unsafe: a bound earns its way into
// admission by declaring an entry in Registry, not by existing.
func AdmissionSafe(name string, g *dag.Graph, p platform.Platform) bool {
	e, ok := Registry[name]
	if !ok || e.Relation == UnsafeDemo {
		return false
	}
	return e.SafeFor == nil || e.SafeFor(g, p)
}

// RhomSafeFor reports whether the homogeneous bound Rhom is a safe
// response-time bound for g executing on p. It is safe on the paper's
// model (at most one offload node — the device then never serializes
// offloaded work) and whenever none of g's offload classes has a machine
// on p (the work necessarily executes on the host, which is exactly what
// Rhom models). With k ≥ 2 offload nodes contending for devices it is NOT
// safe: the cross-validation sweep exhibits simulated heterogeneous
// makespans above len + (vol − len)/m, because Graham's argument cannot
// charge device-serialized work against the m host cores. TypedRhom is the
// safe bound there.
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
