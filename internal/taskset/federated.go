// Federated scheduling (Baruah, RTSS 2016 — cited as [4] in the paper's
// related work): each high-utilization task receives dedicated host cores,
// low-utilization tasks are partitioned onto the remaining cores, and
// schedulability of each dedicated-core task is verified with the paper's
// per-DAG bounds.
//
// Core grants exploit that the safe bounds are non-increasing in m: the
// minimal number of dedicated cores for task τ is found by scanning m
// upward until R(m) ≤ D − J.
//
// Accelerator handling: the paper's model gives a task exclusive use of its
// accelerator during execution. Under federated scheduling this holds only
// when no two granted tasks contend for the same device, so the budget is
// kept per device class: a task may claim (one machine of) each device
// class its offloaded nodes actually need, only while that class has
// machines left. Tasks that cannot get their devices are analyzed with the
// homogeneous bound, treating offloaded work as host work (always safe —
// DESIGN.md §4.3). When the homogeneous analysis already admits a task at
// the same core count, the device is left for someone else.
package taskset

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/platform"
)

// MaxCoresPerTask caps the per-task core scan; tasks needing more are
// deemed unschedulable.
const MaxCoresPerTask = 1024

// FederatedPolicy returns the federated-scheduling admission test.
func FederatedPolicy() Policy { return federated{} }

type federated struct{}

func (federated) Name() string { return "federated" }

func (federated) Admit(ctx context.Context, in AdmitInput) (*PolicyResult, error) {
	if err := checkGraphs("federated", in.Set); err != nil {
		return nil, err
	}
	p := in.Platform
	res := &PolicyResult{
		Policy:   "federated",
		Admitted: true,
		Tasks:    make([]TaskDecision, len(in.Set.Tasks)),
	}

	// Device budget per class: how many granted tasks may keep exclusive
	// use of a machine of each device class.
	devicesLeft := make([]int, p.NumClasses())
	for c := 1; c < p.NumClasses(); c++ {
		devicesLeft[c] = p.Count(c)
	}

	// Process tasks in decreasing utilization (classic federated order;
	// makes the device assignment deterministic and favors the hungriest
	// task). Ties break on the (canonical) taskset index.
	us := make([]float64, len(in.Set.Tasks))
	for i := range us {
		us[i] = in.util(i)
	}
	order := make([]int, len(in.Set.Tasks))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		ua, ub := us[a], us[b]
		switch {
		case ua > ub:
			return -1
		case ua < ub:
			return 1
		default:
			return a - b
		}
	})

	reject := func(reason string) {
		if res.Admitted {
			res.Admitted = false
			res.Reason = reason
		}
	}

	var lights []int // light-task indices, in allocation order
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := in.Set.Tasks[i]
		u := us[i]
		d := TaskDecision{Task: i, Utilization: u, Heavy: u > 1}
		deff := t.EffectiveDeadline()

		if !d.Heavy {
			// Light task: runs on the shared partition, so exclusive
			// accelerator timing cannot be guaranteed — its sequential
			// volume must fit the effective deadline. Which shared core it
			// lands on is decided by the density packing below, once the
			// heavy grants have fixed the partition size.
			vol := in.Evals[i].sum.Volume
			d.R = float64(vol)
			if d.R > float64(deff) {
				d.Reason = fmt.Sprintf("volume %d exceeds effective deadline %d on the shared partition", vol, deff)
				reject(fmt.Sprintf("task %d: %s", i, d.Reason))
			} else {
				d.Admitted = true
				d.Reason = "shared partition"
				lights = append(lights, i)
			}
			res.Tasks[i] = d
			continue
		}

		needed := neededClasses(t, p)
		useDevice := len(needed) > 0 && classesAvailable(devicesLeft, needed)
		cores, r, usedDev, reason, err := minCores(ctx, in.Evals[i], p, deff, needed, useDevice)
		if err != nil {
			return nil, fmt.Errorf("taskset: federated: task %d: %w", i, err)
		}
		if reason != "" {
			d.Reason = reason
			reject(fmt.Sprintf("task %d: %s", i, reason))
			res.Tasks[i] = d
			continue
		}
		if usedDev {
			for _, c := range needed {
				devicesLeft[c]--
			}
			d.UsesDevice = true
			d.DeviceClasses = needed
		}
		d.Admitted = true
		d.Cores = cores
		d.R = r
		res.DedicatedCores += cores
		res.Tasks[i] = d
	}

	res.SharedCores = p.Cores() - res.DedicatedCores
	if res.SharedCores < 0 {
		res.SharedCores = 0
		reject(fmt.Sprintf("heavy tasks need %d cores, platform has %d", res.DedicatedCores, p.Cores()))
	}
	// Light tasks: partition them onto the shared cores first-fit by
	// DENSITY δ = vol/(D−J). A core running a set of sequential sporadic
	// tasks with Σδ ≤ 1 meets every deadline under EDF (density test), so
	// the packing — not a bare utilization sum — is the sufficient
	// condition. (A utilization sum admits e.g. two δ=1 tasks on one core,
	// which provably miss; the density first-fit rejects that.) The packing
	// runs even when the verdict is already negative, so every per-task
	// decision in the report reflects a test that actually ran — a light
	// task is only reported admitted if it found a core.
	if len(lights) > 0 {
		bins := make([]float64, res.SharedCores)
		for _, i := range lights {
			t := in.Set.Tasks[i]
			density := float64(in.Evals[i].sum.Volume) / float64(t.EffectiveDeadline())
			placed := false
			for b := range bins {
				if bins[b]+density <= 1+1e-12 {
					bins[b] += density
					placed = true
					break
				}
			}
			if !placed {
				res.Tasks[i].Admitted = false
				res.Tasks[i].Reason = fmt.Sprintf("density %.2f does not fit any of %d shared cores", density, res.SharedCores)
				reject(fmt.Sprintf("task %d: %s", i, res.Tasks[i].Reason))
			}
		}
	}
	return res, nil
}

// neededClasses returns the sorted device classes (≥ 1) the task's offload
// nodes execute on, restricted to classes the platform actually has
// machines of (a class the platform lacks can never be granted; the task
// falls back to the homogeneous analysis).
func neededClasses(t SporadicTask, p platform.Platform) []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range t.G.OffloadNodes() {
		c := t.G.Class(v)
		if c >= 1 && c < p.NumClasses() && p.Count(c) > 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func classesAvailable(devicesLeft []int, needed []int) bool {
	for _, c := range needed {
		if c >= len(devicesLeft) || devicesLeft[c] < 1 {
			return false
		}
	}
	return true
}

// minCores finds the smallest m ≤ min(MaxCoresPerTask, p.Cores()) whose
// bound meets the effective deadline. The homogeneous slice is probed
// first — when it admits, the devices stay in the budget; otherwise, with
// the needed device classes available, the heterogeneous slice (m cores +
// one machine of each needed class) is probed. Both bound families are
// non-increasing in m, so the first feasible m is minimal.
func minCores(ctx context.Context, eval *Eval, p platform.Platform, deff int64, needed []int, useDevice bool) (cores int, r float64, usedDev bool, reason string, err error) {
	maxM := p.Cores()
	if maxM > MaxCoresPerTask {
		maxM = MaxCoresPerTask
	}
	// A path that yields ErrNoSafeBound yields it at every m (applicability
	// does not depend on the core count), so it is disabled for the rest of
	// the scan rather than treated as a fatal admission error.
	homOK, hetOK := true, useDevice
	for m := 1; m <= maxM; m++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, false, "", err
		}
		if !homOK && !hetOK {
			break
		}
		if homOK {
			rHom, err := eval.Bound(ctx, platform.Homogeneous(m))
			switch {
			case errors.Is(err, ErrNoSafeBound):
				homOK = false
			case err != nil:
				return 0, 0, false, "", err
			case rHom <= float64(deff):
				return m, rHom, false, "", nil
			}
		}
		if hetOK {
			rHet, err := eval.Bound(ctx, hetForClasses(p, m, needed))
			switch {
			case errors.Is(err, ErrNoSafeBound):
				hetOK = false
			case err != nil:
				return 0, 0, false, "", err
			case rHet <= float64(deff):
				return m, rHet, true, "", nil
			}
		}
	}
	if !homOK && !hetOK {
		return 0, 0, false, fmt.Sprintf("no safe bound applies on %v", p), nil
	}
	return 0, 0, false, fmt.Sprintf("not schedulable within %d dedicated cores (D−J = %d)", maxM, deff), nil
}

// hetForClasses builds the per-task analysis platform: m dedicated host
// cores plus one granted machine of each needed device class (other device
// classes are present but empty, keeping class indices aligned with the
// task graph's).
func hetForClasses(p platform.Platform, m int, needed []int) platform.Platform {
	maxClass := 0
	for _, c := range needed {
		if c > maxClass {
			maxClass = c
		}
	}
	classes := make([]platform.ResourceClass, maxClass+1)
	classes[0] = platform.ResourceClass{Name: p.ClassName(0), Count: m}
	for c := 1; c <= maxClass; c++ {
		classes[c] = platform.ResourceClass{Name: p.ClassName(c), Count: 0}
	}
	for _, c := range needed {
		classes[c].Count = 1
	}
	return platform.New(classes...)
}
