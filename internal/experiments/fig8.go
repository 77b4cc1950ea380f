package experiments

import (
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/rta"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/taskgen"
	"repro/internal/transform"
)

// Fig8Point records the scenario mix at one COff% sample.
type Fig8Point struct {
	TargetFrac float64
	MeanFrac   float64
	// S1, S21, S22 are occurrence percentages of Theorem 1's scenarios
	// (they sum to 100 up to rounding).
	S1, S21, S22 float64
	N            int
}

// Fig8Series is the scenario-occurrence sweep for one platform.
type Fig8Series struct {
	M      int
	Points []Fig8Point
}

// Intersection returns the COff fraction where scenario 2.1 overtakes 2.2:
// the first grid point past the last one where scenario 1 holds a strict
// majority at which 2.1's share is non-zero and at least 2.2's. Theorem 1's
// scenarios take over in the order 1, 2.2, 2.1 as COff grows; the few
// scenario-2.1 tasks that already occur while scenario 1 dominates lie
// before that cut, so their shares cannot fire the rule. ok is false when
// no grid point qualifies.
func (s Fig8Series) Intersection() (frac float64, ok bool) {
	from := 0
	for i, p := range s.Points {
		if p.S1 > 50 {
			from = i + 1
		}
	}
	for _, p := range s.Points[from:] {
		if p.S21 > 0 && p.S21 >= p.S22 {
			return p.TargetFrac, true
		}
	}
	return 0, false
}

// Fig8Result reproduces Figure 8: "Percentage of scenarios occurrence,
// n ∈ [100,250]" — which of Theorem 1's cases classified each randomly
// generated task as COff grows. Boundary tasks with COff = Rhom(GPar) are
// counted as Scenario 2.1, the tie-breaking rule documented on
// rta.Scenario.
type Fig8Result struct {
	Series []Fig8Series
	// Intersections maps m to the COff fraction where scenarios 2.1 and
	// 2.2 meet (COff = Rhom(GPar)), the point of maximum Rhet benefit; the
	// paper reports 32%, 20%, 14%, 10% for m = 2, 4, 8, 16.
	Intersections map[int]float64
}

// Fig8 runs the scenario-occurrence experiment.
func Fig8(ctx context.Context, cfg Config) (*Fig8Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Fig8Result{Intersections: map[int]float64{}}
	for _, p := range cfg.Platforms {
		res.Series = append(res.Series, Fig8Series{
			M:      p.Cores(),
			Points: make([]Fig8Point, len(cfg.Fractions)),
		})
	}
	pts := cfg.grid()
	err := batch.Run(ctx, len(pts), cfg.Parallelism, func(ctx context.Context, i int) error {
		pt := pts[i]
		gen := taskgen.MustNew(cfg.Params, cfg.Seed+int64(8000*pt.plat.Cores()+pt.pi))
		counts := map[rta.Scenario]int{}
		var fracs stats.Accumulator
		for k := 0; k < cfg.TasksPerPoint; k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			g, _, realized, err := gen.HetTask(pt.frac)
			if err != nil {
				return err
			}
			tr, err := transform.Transform(g)
			if err != nil {
				return fmt.Errorf("fig8: %w", err)
			}
			het, err := rta.Rhet(tr, pt.plat)
			if err != nil {
				return err
			}
			counts[het.Scenario]++
			fracs.Add(realized)
		}
		n := cfg.TasksPerPoint
		res.Series[pt.si].Points[pt.pi] = Fig8Point{
			TargetFrac: pt.frac,
			MeanFrac:   fracs.Mean(),
			S1:         100 * float64(counts[rta.Scenario1]) / float64(n),
			S21:        100 * float64(counts[rta.Scenario21]) / float64(n),
			S22:        100 * float64(counts[rta.Scenario22]) / float64(n),
			N:          n,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, series := range res.Series {
		if x, ok := series.Intersection(); ok {
			res.Intersections[series.M] = x
		}
	}
	return res, nil
}

// Table renders one table per host size.
func (r *Fig8Result) Table() []*table.Table {
	var out []*table.Table
	for _, s := range r.Series {
		t := table.New(fmt.Sprintf("Figure 8 (m=%d): scenario occurrence %%", s.M),
			"COff/vol %", "scenario 1", "scenario 2.1", "scenario 2.2")
		for _, p := range s.Points {
			t.AddRow(100*p.TargetFrac, p.S1, p.S21, p.S22)
		}
		out = append(out, t)
	}
	return out
}

// SummaryTable reports the 2.1/2.2 intersection against the paper.
func (r *Fig8Result) SummaryTable() *table.Table {
	t := table.New("Figure 8 summary: COff% where scenario 2.1 overtakes 2.2 (max Rhet benefit)",
		"m", "measured %", "paper %")
	paper := map[int]float64{2: 32, 4: 20, 8: 14, 16: 10}
	for _, s := range r.Series {
		measured := "-"
		if x, ok := r.Intersections[s.M]; ok {
			measured = fmt.Sprintf("%.1f", 100*x)
		}
		ref := "-"
		if p, ok := paper[s.M]; ok {
			ref = fmt.Sprintf("%.1f", p)
		}
		t.AddRow(s.M, measured, ref)
	}
	return t
}
