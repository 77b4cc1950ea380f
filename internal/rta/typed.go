package rta

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/platform"
)

// TypedRhom is the typed generalization of Equation 1 to DAGs whose nodes
// are spread over any number of resource classes (the paper's §7 future
// work: more offloaded nodes, more devices, more device types; after the
// typed-DAG response-time bounds of Han et al.). For any work-conserving
// schedule of G on a platform with m_c machines of class c,
//
//	R ≤ Σ_c vol_c(G)/m_c + max_λ Σ_{v∈λ} C_v·(1 − 1/m_cls(v))
//
// where vol_c is the total work of class-c nodes, λ ranges over paths, and
// cls(v) is the class of node v. On a homogeneous DAG it degenerates
// exactly to Eq. 1. Proof sketch: build the interference chain backwards
// from the last finishing node as in Graham's argument; whenever the
// current chain node is not executing, every machine of its class is busy,
// so the total blocked time is at most Σ_c (vol_c − work_c(λ))/m_c; add the
// chain's own work and maximize over paths.
//
// Every class that actually hosts a node must have at least one machine on
// p; violations are reported per class (the class coverage rule of
// TypedRhomBound's skip).
func TypedRhom(g *dag.Graph, p platform.Platform) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, fmt.Errorf("rta: TypedRhom: %w", err)
	}
	order, ok := g.TopoOrder()
	if !ok {
		return 0, fmt.Errorf("rta: TypedRhom: %w", dag.ErrCyclic)
	}
	// Per-class volumes; a populated class without machines is an error.
	if reason := missingClasses(g, p); reason != "" {
		return 0, fmt.Errorf("rta: TypedRhom: %s", reason)
	}
	vol := make([]float64, p.NumClasses())
	for n := range g.EachNode() {
		if p.Count(n.Class) >= 1 { // else a resource-free sync node
			vol[n.Class] += float64(n.WCET)
		}
	}
	// Longest path under modified weights C_v·(1 − 1/m_cls(v)).
	weight := func(v int) float64 {
		c := g.Class(v)
		if p.Count(c) < 1 {
			return 0 // resource-free sync node
		}
		return float64(g.WCET(v)) * (1 - 1/float64(p.Count(c)))
	}
	best := make([]float64, g.NumNodes())
	var maxPath float64
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var tail float64
		for _, w := range g.Succs(v) {
			if best[w] > tail {
				tail = best[w]
			}
		}
		best[v] = weight(v) + tail
		if best[v] > maxPath {
			maxPath = best[v]
		}
	}
	r := maxPath
	for c, volC := range vol {
		if volC > 0 {
			r += volC / float64(p.Count(c))
		}
	}
	return r, nil
}
