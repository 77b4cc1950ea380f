package experiments

import (
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/rta"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/taskgen"
	"repro/internal/transform"
)

// NaivePoint quantifies the §3.2 unsafety argument at one COff share.
type NaivePoint struct {
	TargetFrac float64
	// ViolationPct is the percentage of tasks for which some sampled
	// work-conserving schedule exceeded the naive bound (Rhom with COff
	// subtracted from the interference term).
	ViolationPct float64
	// WorstExcessPct is the maximum observed excess over the naive bound,
	// as a percentage of the bound.
	WorstExcessPct float64
	// RhetViolationPct is the same check against Rhet(τ') — it must be 0
	// (Rhet is proven safe); the harness reports it as a live invariant.
	RhetViolationPct float64
	N                int
}

// NaiveSeries is the per-platform sweep.
type NaiveSeries struct {
	M      int
	Points []NaivePoint
}

// NaiveResult supports Section 3.2 empirically: the naive interference
// reduction is not just theoretically unsound, random work-conserving
// schedules actually violate it, while the transformed-task bound Rhet
// never is. This table has no direct counterpart figure in the paper — it
// backs the Figure 1(c) narrative at scale.
type NaiveResult struct {
	Series []NaiveSeries
	// Samples is the number of random schedules drawn per task.
	Samples int
}

// Naive runs the violation study. samples counts random schedules per task
// (0 means 32).
func Naive(ctx context.Context, cfg Config, samples int) (*NaiveResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if samples <= 0 {
		samples = 32
	}
	res := &NaiveResult{Samples: samples}
	for _, p := range cfg.Platforms {
		res.Series = append(res.Series, NaiveSeries{
			M:      p.Cores(),
			Points: make([]NaivePoint, len(cfg.Fractions)),
		})
	}
	pts := cfg.grid()
	err := batch.Run(ctx, len(pts), cfg.Parallelism, func(ctx context.Context, i int) error {
		pt := pts[i]
		gen := taskgen.MustNew(cfg.Params, cfg.Seed+int64(600*pt.plat.Cores()+pt.pi))
		violated, hetViolated := 0, 0
		var worst stats.Accumulator
		var sc sched.Scratch
		for k := 0; k < cfg.TasksPerPoint; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			g, _, _, err := gen.HetTask(pt.frac)
			if err != nil {
				return err
			}
			tr, err := transform.Transform(g)
			if err != nil {
				return err
			}
			het, err := rta.Rhet(tr, pt.plat)
			if err != nil {
				return err
			}
			naive, err := rta.Naive(g, pt.plat)
			if err != nil {
				return err
			}
			_, worstSim, err := sched.Sample(g, pt.plat, samples, cfg.Seed+int64(k))
			if err != nil {
				return err
			}
			// Include the deterministic breadth-first schedule too —
			// it is the Figure 1(c) culprit.
			bf, err := sched.SimulateWith(&sc, g, pt.plat, sched.BreadthFirst())
			if err != nil {
				return err
			}
			worstMakespan := worstSim.Makespan
			if bf.Makespan > worstMakespan {
				worstMakespan = bf.Makespan
			}
			if float64(worstMakespan) > naive+1e-9 {
				violated++
				worst.Add(100 * (float64(worstMakespan) - naive) / naive)
			}
			// Live safety check on Rhet: worst simulated τ' schedule.
			_, worstT, err := sched.Sample(tr.Transformed, pt.plat, samples, cfg.Seed+int64(k))
			if err != nil {
				return err
			}
			if float64(worstT.Makespan) > het.R+1e-9 {
				hetViolated++
			}
		}
		p := NaivePoint{
			TargetFrac:       pt.frac,
			ViolationPct:     100 * float64(violated) / float64(cfg.TasksPerPoint),
			RhetViolationPct: 100 * float64(hetViolated) / float64(cfg.TasksPerPoint),
			N:                cfg.TasksPerPoint,
		}
		if worst.N() > 0 {
			p.WorstExcessPct = worst.Max()
		}
		res.Series[pt.si].Points[pt.pi] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders one table per m.
func (r *NaiveResult) Table() []*table.Table {
	var out []*table.Table
	for _, s := range r.Series {
		t := table.New(
			fmt.Sprintf("Naive-bound violations (m=%d, %d sampled schedules/task): §3.2 at scale", s.M, r.Samples),
			"COff/vol %", "naive violated %", "worst excess %", "Rhet violated %")
		for _, p := range s.Points {
			t.AddRow(100*p.TargetFrac, p.ViolationPct, p.WorstExcessPct, p.RhetViolationPct)
		}
		out = append(out, t)
	}
	return out
}
