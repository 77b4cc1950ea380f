// Package rta implements the response-time analyses of the paper:
//
//   - Rhom (Equation 1): the classic bound for a DAG task on m homogeneous
//     cores, len(G) + (vol(G) − len(G))/m, from Serrano et al. (CASES 2015)
//     after Graham's list-scheduling bound.
//   - Rhet (Theorem 1, Equations 2–4): the new heterogeneous bound on the
//     transformed DAG τ', which safely reduces the self-interference factor
//     by the workload guaranteed to overlap the accelerator.
//   - Naive (Section 3.2): the unsafe bound obtained by blindly subtracting
//     COff from the self-interference factor, kept to demonstrate why the
//     transformation is necessary (see the package tests, which exhibit the
//     paper's Figure 1(c) counterexample).
//
// Every analysis takes the execution platform as a platform.Platform value
// (m host cores + devices) rather than a bare core count, so the device
// configuration travels with the analysis and its Report.
//
// Bounds are float64 because of the 1/m factor; WCETs are integers.
package rta

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/transform"
)

// Scenario identifies which case of Theorem 1 applies to a transformed task.
//
// # Tie-breaking at COff = Rhom(GPar)
//
// The paper states Scenario 2.1 as "COff ≥ Rhom(GPar)" (Eq. 3) and Scenario
// 2.2 as "COff ≤ Rhom(GPar)" (Eq. 4), so at exact equality both conditions
// hold. The two equations coincide there — substituting COff = Rhom(GPar)
// into either yields the same bound — so the choice is only a labeling
// question. This package classifies the equality case as Scenario 2.1 (the
// comparison used is COff ≥ Rhom(GPar), strict "<" selects 2.2); Figure 8's
// scenario-occurrence counts follow the same rule. This is the single
// authoritative statement of the tie-breaking rule.
type Scenario int

const (
	// ScenarioNone is returned on errors.
	ScenarioNone Scenario = iota
	// Scenario1: vOff does not belong to the critical path of G' (Eq. 2).
	Scenario1
	// Scenario21: vOff on the critical path and COff ≥ Rhom(GPar) (Eq. 3).
	// Equality belongs here; see the Scenario tie-breaking note.
	Scenario21
	// Scenario22: vOff on the critical path and COff < Rhom(GPar) (Eq. 4).
	// The paper writes "≤"; equality is classified as Scenario 2.1, where
	// Eqs. 3 and 4 coincide. See the Scenario tie-breaking note.
	Scenario22
)

// String returns the paper's label for the scenario.
func (s Scenario) String() string {
	switch s {
	case Scenario1:
		return "scenario 1"
	case Scenario21:
		return "scenario 2.1"
	case Scenario22:
		return "scenario 2.2"
	default:
		return "scenario none"
	}
}

// Rhom computes Equation 1, the response-time upper bound of DAG task τ on
// the p.Cores homogeneous host cores of p:
//
//	Rhom(τ) = len(G) + (vol(G) − len(G))/m
//
// The 1/m term upper-bounds the self-interference: the interference the
// task's own parallel workload inflicts on its critical path. For a
// heterogeneous task this treats vOff like any host node (devices are
// ignored), which is the baseline the paper compares against. p.Cores must
// be positive.
func Rhom(g *dag.Graph, p platform.Platform) float64 {
	if p.Cores() <= 0 {
		panic(fmt.Sprintf("rta: Rhom with %v", p))
	}
	l := g.CriticalPathLength()
	v := g.Volume()
	return float64(l) + float64(v-l)/float64(p.Cores())
}

// Naive computes the unsafe heterogeneous bound of Section 3.2: Rhom with
// COff subtracted from the self-interference factor,
//
//	len(G) + (vol(G) − len(G) − COff)/m .
//
// It is NOT a valid upper bound (Figure 1(c) of the paper; reproduced in
// this package's tests): use Rhet on the transformed DAG instead.
func Naive(g *dag.Graph, p platform.Platform) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, fmt.Errorf("rta: %w", err)
	}
	vOff, ok := g.OffloadNode()
	if !ok {
		return 0, transform.ErrNoOffload
	}
	l := g.CriticalPathLength()
	v := g.Volume()
	return float64(l) + float64(v-l-g.WCET(vOff))/float64(p.Cores()), nil
}

// HetResult carries Rhet and the quantities entering Equations 2–4, so
// callers (and EXPERIMENTS.md tables) can report how the bound was formed.
type HetResult struct {
	// R is the response-time upper bound Rhet(τ').
	R float64
	// Scenario says which equation produced R.
	Scenario Scenario
	// LenPrime and VolPrime are len(G') and vol(G').
	LenPrime, VolPrime int64
	// COff is the WCET of the offloaded node.
	COff int64
	// LenPar and VolPar are len(GPar) and vol(GPar).
	LenPar, VolPar int64
	// RhomPar is Rhom(GPar), the quantity compared against COff to choose
	// between Scenarios 2.1 and 2.2 (ties go to 2.1; see Scenario).
	RhomPar float64
}

// Rhet evaluates Theorem 1 on a transformed task (the output of
// transform.Transform) for platform p. The analysis models the paper's
// platform — p must have at least one host core and at least one device for
// the offloaded node to run on.
func Rhet(tr *transform.Result, p platform.Platform) (HetResult, error) {
	if err := p.Validate(); err != nil {
		return HetResult{}, fmt.Errorf("rta: Rhet: %w", err)
	}
	if cls := tr.Original.Class(tr.Offload); p.Count(cls) < 1 {
		return HetResult{}, fmt.Errorf("rta: Rhet on %v: the offloaded node runs on class %d (%s), which has no machine",
			p, cls, p.ClassName(cls))
	}
	gp := tr.Transformed
	res := HetResult{
		LenPrime: gp.CriticalPathLength(),
		VolPrime: gp.Volume(),
		COff:     tr.COff(),
		LenPar:   tr.Par.CriticalPathLength(),
		VolPar:   tr.Par.Volume(),
	}
	m := p.Cores()
	res.RhomPar = float64(res.LenPar) + float64(res.VolPar-res.LenPar)/float64(m)
	mf := float64(m)

	switch {
	case !gp.OnCriticalPath(tr.Offload):
		// Scenario 1 (Eq. 2): vOff is off the critical path, so some GPar
		// path outlasts COff and the accelerator workload can be removed
		// from the self-interference factor.
		res.Scenario = Scenario1
		res.R = float64(res.LenPrime) + (float64(res.VolPrime-res.LenPrime)-float64(res.COff))/mf
	case float64(res.COff) >= res.RhomPar:
		// Scenario 2.1 (Eq. 3): the accelerator outlasts everything GPar
		// can do, so the whole vol(GPar) overlaps COff. Equality lands here
		// (Eqs. 3 and 4 coincide at COff = Rhom(GPar); see Scenario).
		res.Scenario = Scenario21
		res.R = float64(res.LenPrime) + (float64(res.VolPrime-res.LenPrime)-float64(res.VolPar))/mf
	default:
		// Scenario 2.2 (Eq. 4): vOff is on the critical path but GPar's
		// response time dominates COff; COff is replaced by Rhom(GPar) on
		// the critical path, and simplification yields Eq. 4.
		res.Scenario = Scenario22
		res.R = float64(res.LenPrime) - float64(res.COff) + float64(res.LenPar) +
			(float64(res.VolPrime-res.LenPrime)-float64(res.LenPar))/mf
	}
	return res, nil
}
