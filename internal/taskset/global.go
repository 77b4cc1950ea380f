// Global fixed-priority scheduling of sporadic DAG tasksets: all tasks
// share the m host cores under a deadline-monotonic work-conserving
// scheduler, and schedulability is certified by a response-time iteration
// with carry-in interference bounds.
//
// The analysis follows the global sporadic-DAG line of work the paper's
// related-work section points at: Melani et al. (ECRTS 2015) introduced the
// inter-task interference window with one carry-in job per interfering
// task; Dinh et al. ("Analysis of Global Fixed-Priority Scheduling for
// Generalized Sporadic DAG Tasks") extend it to generalized DAG models;
// Dong & Liu ("New Analysis Techniques for Supporting Hard Real-Time
// Sporadic DAG Task Systems on Multiprocessors") tighten the carry-in
// workload bounds. We implement the sufficient fixpoint form with release
// jitter folded into the interference window and — because this platform
// is heterogeneous — the interference split PER RESOURCE CLASS, in the
// spirit of the typed-DAG global analyses (Han et al.):
//
//	R_k = Rdag_k + Σ_{c ∈ classes(k)} (1/m_c) · Σ_{i ∈ hp(k)} W_i^c(R_k)
//
// where Rdag_k is a safe bound on τ_k executing alone on the full platform
// (the paper's per-DAG bounds, via TaskEval), classes(k) are the resource
// classes τ_k's nodes occupy (always including the host class), m_c is the
// machine count of class c, and W_i^c(L) bounds τ_i's class-c workload in
// any window of length L:
//
//	A        = L + R_i + J_i          (window extended by τ_i's own
//	                                   response bound and jitter: carry-in)
//	W_i^c(L) = ⌊A/T_i⌋·vol_i^c + min(vol_i^c, m_c·(A − ⌊A/T_i⌋·T_i))
//
// The per-class split is what makes the test sound on devices: when τ_k's
// chain is blocked at a class-c node, it is the m_c machines of class c
// that are busy — device-serialized blocking cannot be divided across the
// m host cores (dividing everything by m is exactly the unsoundness
// documented for Rhom in DESIGN.md §10.3, inter-task instead of
// intra-task; one higher-priority 400-unit offload on a single device
// delays a lower-priority offload by up to 400, not 400/m). Work of a
// class with no machine on the platform is bucketed as host work — it can
// only execute there. The test is sufficient: admission guarantees every
// job meets its deadline under any work-conserving global fixed-priority
// scheduler; rejection proves nothing.
package taskset

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
)

// maxGlobalIterations caps the per-task fixpoint loop; the iteration is
// monotone and bounded by D−J, so hitting the cap means pathological float
// creep — treated as non-convergence, i.e. rejection.
const maxGlobalIterations = 1024

// GlobalPolicy returns the global fixed-priority admission test.
func GlobalPolicy() Policy { return global{} }

type global struct{}

func (global) Name() string { return "global" }

func (global) Admit(ctx context.Context, in AdmitInput) (*PolicyResult, error) {
	p := in.Platform
	m := float64(p.Cores())
	if p.Cores() < 1 {
		return nil, fmt.Errorf("taskset: global: platform %v has no host cores", p)
	}
	if err := checkGraphs("global", in.Set); err != nil {
		return nil, err
	}
	res := &PolicyResult{
		Policy:   "global",
		Admitted: true,
		Tasks:    make([]TaskDecision, len(in.Set.Tasks)),
	}

	// Deadline-monotonic priority order, ties by (canonical) index. The
	// deadlines are hoisted into a dense array first so the comparator
	// reads 8-byte slots instead of striding through the task structs.
	order := make([]int, len(in.Set.Tasks))
	dls := make([]int64, len(in.Set.Tasks))
	for i := range order {
		order[i] = i
		dls[i] = in.Set.Tasks[i].Deadline
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch da, db := dls[a], dls[b]; {
		case da < db:
			return -1
		case da > db:
			return 1
		default:
			return a - b
		}
	})

	// Per-task per-class volumes (ClassVolumes). Evals that carry the graph
	// (the facade's handles) serve these from a per-platform memo — node
	// sums are graph content, identical either way.
	nC := p.NumClasses()
	vols := make([][]float64, len(in.Set.Tasks))
	for i, t := range in.Set.Tasks {
		if cv, ok := in.Evals[i].(ClassVolumeSource); ok {
			vols[i] = cv.ClassVolumes(p)
		} else {
			vols[i] = ClassVolumes(t.G, p)
		}
	}

	// interferers grows by one entry as each task is certified, so every
	// task sees exactly its higher-priority prefix without re-building it.
	// Certification stops at the first failure, so the prefix is always
	// complete when it is read.
	interferers := make([]globalInterferer, 0, len(order))
	caps := make([]float64, 0, nC)
	buckets := make([]int, 0, nC)
	for _, k := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := in.Set.Tasks[k]
		d := TaskDecision{Task: k, Utilization: in.util(k)}
		if !res.Admitted {
			d.Reason = "not analyzed: a higher-priority task is already unschedulable"
			res.Tasks[k] = d
			continue
		}
		deff := float64(t.EffectiveDeadline())

		rdag, err := in.Evals[k].Bound(ctx, p)
		if errors.Is(err, ErrNoSafeBound) {
			// The task cannot be certified on this platform at all — a
			// rejection, not an admission failure.
			d.Reason = err.Error()
			res.Admitted = false
			res.Reason = fmt.Sprintf("task %d: %s", k, d.Reason)
			res.Tasks[k] = d
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("taskset: global: task %d: %w", k, err)
		}
		// classes(k): the buckets τ_k occupies — its chain can only be
		// blocked on machines of these classes. The scratch slices are
		// reused across tasks; globalIterate does not retain them.
		caps, buckets = caps[:0], buckets[:0]
		for c := 0; c < nC; c++ {
			if c == 0 || vols[k][c] > 0 {
				buckets = append(buckets, c)
				if c == 0 {
					caps = append(caps, m)
				} else {
					caps = append(caps, float64(p.Count(c)))
				}
			}
		}

		r, converged, iters := globalIterate(rdag, deff, buckets, caps, interferers)
		res.Iterations += iters
		d.R = r
		if converged && r <= deff {
			d.Admitted = true
			interferers = append(interferers, globalInterferer{
				vols:   vols[k],
				r:      r,
				period: float64(t.Period),
				jitter: float64(t.Jitter),
			})
		} else {
			if r > deff {
				d.Reason = fmt.Sprintf("response bound %.2f exceeds effective deadline %.0f", r, deff)
			} else {
				d.Reason = "response-time iteration did not converge"
			}
			res.Admitted = false
			res.Reason = fmt.Sprintf("task %d: %s", k, d.Reason)
		}
		res.Tasks[k] = d
	}
	return res, nil
}

// globalInterferer is one higher-priority task's contribution to the
// fixpoint, with the int64 model parameters pre-widened.
type globalInterferer struct {
	vols   []float64
	r      float64
	period float64
	jitter float64
}

// globalIterate runs one task's response-time fixpoint: r starts at the
// standalone bound and grows by per-class carry-in interference from the
// higher-priority tasks until it stabilizes, exceeds the effective
// deadline, or hits the iteration cap. Returns the final r, whether it
// converged, and the number of iterations consumed (the contribution to
// PolicyResult.Iterations).
func globalIterate(rdag, deff float64, buckets []int, caps []float64, interferers []globalInterferer) (r float64, converged bool, iters int) {
	r = rdag
	converged = r <= deff && len(interferers) == 0
	for it := 0; !converged && it < maxGlobalIterations; it++ {
		iters++
		if r > deff {
			break
		}
		next := rdag
		for bi, c := range buckets {
			cap := caps[bi]
			var interference float64
			for _, inf := range interferers {
				vol := inf.vols[c]
				if vol == 0 {
					continue
				}
				a := r + inf.r + inf.jitter
				jobs := math.Floor(a / inf.period)
				rem := a - jobs*inf.period
				interference += jobs*vol + math.Min(vol, cap*rem)
			}
			next += interference / cap
		}
		if next <= r+1e-9 {
			converged = true
			break
		}
		r = next
	}
	return r, converged, iters
}
