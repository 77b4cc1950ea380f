package experiments

import (
	"context"
	"fmt"

	"repro/internal/batch"
	"repro/internal/exact"
	"repro/internal/platform"
	"repro/internal/rta"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/taskgen"
	"repro/internal/transform"
)

// Fig7Point is one x-axis sample of the accuracy experiment.
type Fig7Point struct {
	TargetFrac float64
	MeanFrac   float64
	// IncHom and IncHet are the mean percentage increments of Rhom(τ) and
	// Rhet(τ') over the minimum makespan of τ (paper Figure 7's two
	// curves).
	IncHom, IncHet float64
	// Proven is the number of instances whose minimum makespan was proven
	// optimal within budget (only those are aggregated); N is the sample.
	Proven, N int
}

// Fig7Series is the accuracy sweep for one (platform, size-range) panel.
type Fig7Series struct {
	Platform   platform.Platform
	M          int
	NMin, NMax int
	Points     []Fig7Point
}

// Fig7Result reproduces Figure 7: "Increment of Rhet(τ') and Rhom(τ)
// w.r.t. the minimum makespan of τ". Panel (a): m=2, n ∈ [3,20];
// panel (b): m=8, n ∈ [30,60]. The paper's CPLEX (12-hour budget) is
// replaced by the branch-and-bound oracle of internal/exact; instances not
// proven optimal within budget are excluded and reported.
type Fig7Result struct {
	Panels []Fig7Series
}

// Fig7Panel describes one panel of the figure.
type Fig7Panel struct {
	Platform   platform.Platform
	NMin, NMax int
}

// PaperFig7Panels returns the two published panels.
func PaperFig7Panels() []Fig7Panel {
	return []Fig7Panel{
		{Platform: platform.Hetero(2), NMin: 3, NMax: 20},
		{Platform: platform.Hetero(8), NMin: 30, NMax: 60},
	}
}

// Fig7 runs the accuracy experiment over the given panels. Cancelling ctx
// aborts the sweep, including any in-flight exact search.
func Fig7(ctx context.Context, cfg Config, panels []Fig7Panel) (*Fig7Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(panels) == 0 {
		panels = PaperFig7Panels()
	}
	res := &Fig7Result{}
	type cell struct{ panel, pi int }
	var cells []cell
	for i, panel := range panels {
		res.Panels = append(res.Panels, Fig7Series{
			Platform: panel.Platform, M: panel.Platform.Cores(),
			NMin: panel.NMin, NMax: panel.NMax,
			Points: make([]Fig7Point, len(cfg.Fractions)),
		})
		for pi := range cfg.Fractions {
			cells = append(cells, cell{panel: i, pi: pi})
		}
	}
	err := batch.Run(ctx, len(cells), cfg.Parallelism, func(ctx context.Context, i int) error {
		c := cells[i]
		panel := panels[c.panel]
		frac := cfg.Fractions[c.pi]
		params := taskgen.Small(panel.NMin, panel.NMax)
		gen := taskgen.MustNew(params, cfg.Seed+int64(7000*panel.Platform.Cores()+c.pi))
		var incHom, incHet, fracs stats.Accumulator
		proven, total := 0, 0
		for k := 0; k < cfg.TasksPerPoint; k++ {
			g, _, realized, err := gen.HetTask(frac)
			if err != nil {
				return err
			}
			total++
			opt, err := exact.MinMakespan(ctx, g, panel.Platform, exact.Options{MaxExpansions: cfg.ExactBudget})
			if err != nil {
				return fmt.Errorf("fig7: %w", err)
			}
			if opt.Status != exact.Optimal {
				continue // unproven: excluded, reported via Proven/N
			}
			proven++
			tr, err := transform.Transform(g)
			if err != nil {
				return err
			}
			het, err := rta.Rhet(tr, panel.Platform)
			if err != nil {
				return err
			}
			incHom.Add(stats.Increment(rta.Rhom(g, panel.Platform), float64(opt.Makespan)))
			incHet.Add(stats.Increment(het.R, float64(opt.Makespan)))
			fracs.Add(realized)
		}
		res.Panels[c.panel].Points[c.pi] = Fig7Point{
			TargetFrac: frac,
			MeanFrac:   fracs.Mean(),
			IncHom:     incHom.Mean(),
			IncHet:     incHet.Mean(),
			Proven:     proven,
			N:          total,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders one panel per published layout: COff%, Rhom and Rhet
// increments, and exact-solver coverage.
func (r *Fig7Result) Table() []*table.Table {
	var out []*table.Table
	for _, p := range r.Panels {
		t := table.New(
			fmt.Sprintf("Figure 7 (m=%d, n∈[%d,%d]): %% increment over minimum makespan", p.M, p.NMin, p.NMax),
			"COff/vol %", "Rhom inc%", "Rhet inc%", "proven/total")
		for _, pt := range p.Points {
			t.AddRow(100*pt.TargetFrac, pt.IncHom, pt.IncHet,
				fmt.Sprintf("%d/%d", pt.Proven, pt.N))
		}
		out = append(out, t)
	}
	return out
}
