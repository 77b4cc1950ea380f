package experiments

import (
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/platform"
	"repro/internal/table"
	"repro/internal/taskgen"
	"repro/internal/taskset"
)

// TasksetConfig scales the schedulability (acceptance-ratio) sweep — the
// taskset-level experiment family of the DAC'18 evaluation: random sporadic
// tasksets over a utilization grid × task count × offload mix, admitted by
// every taskset policy.
type TasksetConfig struct {
	// Seed drives all task generation; every run with the same config is
	// bit-identical (Parallelism does not affect results).
	Seed int64
	// Platform is the shared execution platform.
	Platform platform.Platform
	// TaskCounts lists the tasks-per-set axis.
	TaskCounts []int
	// OffloadShares lists the offload-mix axis: the fraction of tasks per
	// set carrying one offloaded region.
	OffloadShares []float64
	// UtilPoints is the normalized utilization grid (total utilization /
	// host cores), strictly ascending. Each base taskset is rescaled across
	// the grid, so a set's acceptance frontier is well defined and the
	// resulting curves are monotonically non-increasing by construction
	// (the breakdown-utilization presentation).
	UtilPoints []float64
	// SetsPerPoint is the number of random tasksets per (count, share)
	// combination.
	SetsPerPoint int
	// COffFrac is the offloaded volume fraction per offloading task.
	COffFrac float64
	// Classes spreads offloads over device classes 1..Classes (0 = 1).
	Classes int
	// DeadlineRatio derives D = ⌈ratio·T⌉ (0 means implicit deadlines);
	// JitterFrac derives J = ⌊frac·D⌋.
	DeadlineRatio float64
	JitterFrac    float64
	// Params are the structural per-DAG generator parameters.
	Params taskgen.Params
	// Parallelism is the worker-pool size for the per-combination fan-out;
	// 0 means one worker per CPU, 1 forces a serial sweep.
	Parallelism int
}

// DefaultTaskset returns the standard acceptance-ratio configuration:
// the paper's midpoint platform (4 cores + 1 accelerator), 4/8/16-task
// sets, three offload mixes, a 19-point utilization grid, 50 sets per
// point.
func DefaultTaskset(seed int64) TasksetConfig {
	utils := make([]float64, 0, 19)
	for u := 0.05; u < 0.96; u += 0.05 {
		utils = append(utils, u)
	}
	return TasksetConfig{
		Seed:          seed,
		Platform:      platform.Hetero(4),
		TaskCounts:    []int{4, 8, 16},
		OffloadShares: []float64{0, 0.25, 0.5},
		UtilPoints:    utils,
		SetsPerPoint:  50,
		COffFrac:      0.3,
		Params:        taskgen.Small(10, 50),
	}
}

// QuickTaskset returns a scaled-down configuration for tests and smoke
// runs.
func QuickTaskset(seed int64) TasksetConfig {
	return TasksetConfig{
		Seed:          seed,
		Platform:      platform.Hetero(4),
		TaskCounts:    []int{4, 8},
		OffloadShares: []float64{0, 0.5},
		UtilPoints:    []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		SetsPerPoint:  8,
		COffFrac:      0.3,
		Params:        taskgen.Small(10, 30),
	}
}

// Validate reports configuration errors.
func (c TasksetConfig) Validate() error {
	if err := c.Platform.Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if len(c.TaskCounts) == 0 {
		return fmt.Errorf("experiments: no task counts")
	}
	for _, n := range c.TaskCounts {
		if n < 1 {
			return fmt.Errorf("experiments: task count %d < 1", n)
		}
	}
	if len(c.OffloadShares) == 0 {
		return fmt.Errorf("experiments: no offload shares")
	}
	for _, s := range c.OffloadShares {
		if s < 0 || s > 1 {
			return fmt.Errorf("experiments: offload share %v outside [0,1]", s)
		}
	}
	if len(c.UtilPoints) == 0 {
		return fmt.Errorf("experiments: no utilization points")
	}
	prev := 0.0
	for _, u := range c.UtilPoints {
		if u <= prev {
			return fmt.Errorf("experiments: utilization grid must be strictly ascending and positive, got %v after %v", u, prev)
		}
		prev = u
	}
	if c.SetsPerPoint < 1 {
		return fmt.Errorf("experiments: SetsPerPoint %d < 1", c.SetsPerPoint)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: negative parallelism %d", c.Parallelism)
	}
	return c.Params.Validate()
}

// TasksetPoint is one (policy, task count, offload share, utilization)
// sample of the acceptance sweep.
type TasksetPoint struct {
	// Policy is the admission policy the ratio belongs to.
	Policy string
	// N is the tasks-per-set count; Share the offload mix.
	N     int
	Share float64
	// Util is the normalized utilization target (total / host cores).
	Util float64
	// Accepted of Sets base tasksets are schedulable at this and every
	// lower utilization (the acceptance frontier); Ratio = Accepted/Sets.
	Accepted int
	Sets     int
	Ratio    float64
}

// TasksetResult is the outcome of TasksetSweep.
type TasksetResult struct {
	Platform platform.Platform
	Policies []string
	Points   []TasksetPoint
}

// TasksetSweep runs the acceptance-ratio experiment: per (task count,
// offload share) combination it draws SetsPerPoint base tasksets (DAGs +
// UUniFast utilization weights), rescales each across the utilization grid,
// and admits every scaled instance with the federated and global policies.
// Policies run directly on the shared policy layer with one Eval per task
// built once per base set — the platform-independent work (reduction,
// Algorithm 1) and every probed platform shape's bound are identical
// across the utilization grid, so rebuilding them per point (as going
// through TasksetAnalyzer.Admit would) is pure waste; the bound semantics
// are the same (minimum over Rhom-where-safe / Rhet / TypedRhom). A set
// counts as accepted at point u if the policy admits it at u and every
// lower point (its frontier), so each curve is monotonically
// non-increasing by construction. Combinations fan out on
// the batch pool; per-set seeding keeps results bit-identical at any
// parallelism.
func TasksetSweep(ctx context.Context, cfg TasksetConfig) (*TasksetResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pols := []taskset.Policy{taskset.FederatedPolicy(), taskset.GlobalPolicy()}
	policies := make([]string, len(pols))
	for i, p := range pols {
		policies[i] = p.Name()
	}

	type combo struct {
		n     int
		share float64
	}
	var combos []combo
	for _, n := range cfg.TaskCounts {
		for _, s := range cfg.OffloadShares {
			combos = append(combos, combo{n: n, share: s})
		}
	}
	// accepted[ci][pi][ui] counts sets whose frontier covers UtilPoints[ui].
	accepted := make([][][]int, len(combos))
	for ci := range accepted {
		accepted[ci] = make([][]int, len(policies))
		for pi := range policies {
			accepted[ci][pi] = make([]int, len(cfg.UtilPoints))
		}
	}

	m := float64(cfg.Platform.Cores())
	err := batch.Run(ctx, len(combos), cfg.Parallelism, func(ctx context.Context, ci int) error {
		cb := combos[ci]
		for set := 0; set < cfg.SetsPerPoint; set++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			base, err := taskset.Generate(taskset.TasksetParams{
				N: cb.n, Util: 1, OffloadShare: cb.share, COffFrac: cfg.COffFrac,
				Classes: cfg.Classes, DeadlineRatio: cfg.DeadlineRatio,
				JitterFrac: cfg.JitterFrac, Params: cfg.Params,
			}, cfg.Seed+10_000_019*int64(ci)+int64(set))
			if err != nil {
				return fmt.Errorf("taskset sweep (n=%d share=%v): %w", cb.n, cb.share, err)
			}
			// The base set's realized per-task utilizations are the scaling
			// weights (they sum to ~1 up to period rounding), and the evals
			// cache the per-graph work across the whole grid.
			weights := make([]float64, cb.n)
			evals := make([]*taskset.Eval, cb.n)
			for i, tk := range base.Tasks {
				weights[i] = tk.Utilization()
				if evals[i], err = taskset.NewEval(taskset.RTABounds(), tk.G); err != nil {
					return fmt.Errorf("taskset sweep (n=%d share=%v): %w", cb.n, cb.share, err)
				}
			}

			alive := make([]bool, len(policies))
			for pi := range alive {
				alive[pi] = true
			}
			for ui, u := range cfg.UtilPoints {
				anyAlive := false
				for _, a := range alive {
					anyAlive = anyAlive || a
				}
				if !anyAlive {
					break
				}
				ts := taskset.Taskset{Tasks: make([]taskset.SporadicTask, cb.n)}
				for i, tk := range base.Tasks {
					ts.Tasks[i] = taskset.SporadicFromUtilization(
						tk.G, weights[i]*u*m, cfg.DeadlineRatio, cfg.JitterFrac)
				}
				in := taskset.AdmitInput{Set: ts, Platform: cfg.Platform, Evals: evals}
				for pi, pol := range pols {
					if !alive[pi] {
						continue
					}
					pr, err := pol.Admit(ctx, in)
					if err != nil {
						return fmt.Errorf("taskset sweep (n=%d share=%v u=%v, %s): %w", cb.n, cb.share, u, pol.Name(), err)
					}
					if pr.Admitted {
						accepted[ci][pi][ui]++
					} else {
						alive[pi] = false
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &TasksetResult{Platform: cfg.Platform, Policies: policies}
	for pi, name := range policies {
		for ci, cb := range combos {
			for ui, u := range cfg.UtilPoints {
				acc := accepted[ci][pi][ui]
				res.Points = append(res.Points, TasksetPoint{
					Policy: name, N: cb.n, Share: cb.share, Util: u,
					Accepted: acc, Sets: cfg.SetsPerPoint,
					Ratio: float64(acc) / float64(cfg.SetsPerPoint),
				})
			}
		}
	}
	return res, nil
}

// Table renders the sweep: one row per (policy, task count, offload share,
// utilization) point.
func (r *TasksetResult) Table() *table.Table {
	t := table.New(fmt.Sprintf("Acceptance ratio of sporadic tasksets on %s (frontier presentation)", r.Platform),
		"policy", "tasks", "offload share", "util/m", "accepted", "sets", "ratio")
	for _, p := range r.Points {
		t.AddRow(p.Policy, p.N, p.Share, p.Util, p.Accepted, p.Sets, p.Ratio)
	}
	return t
}
