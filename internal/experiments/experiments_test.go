package experiments

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sched"
)

func quickCfg() Config {
	c := Quick(42)
	c.TasksPerPoint = 8
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := Default(1).Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	if err := Quick(1).Validate(); err != nil {
		t.Fatalf("Quick invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Platforms = nil },
		func(c *Config) {
			c.Platforms = []platform.Platform{platform.New(platform.ResourceClass{Name: "host", Count: 0}, platform.ResourceClass{Name: "dev", Count: 1})}
		},
		func(c *Config) { c.Parallelism = -1 },
		func(c *Config) { c.TasksPerPoint = 0 },
		func(c *Config) { c.Fractions = nil },
		func(c *Config) { c.Fractions = []float64{1.5} },
		func(c *Config) { c.Params.NPar = 0 },
	}
	for i, mutate := range bad {
		c := Quick(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestFig6QuickShape(t *testing.T) {
	cfg := quickCfg()
	res, err := Fig6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(cfg.Platforms) {
		t.Fatalf("series = %d, want %d", len(res.Series), len(cfg.Platforms))
	}
	for _, s := range res.Series {
		if len(s.Points) != len(cfg.Fractions) {
			t.Fatalf("m=%d: %d points, want %d", s.M, len(s.Points), len(cfg.Fractions))
		}
		// Qualitative claim of §5.2: for small COff the transformation
		// hurts (negative change, τ faster), for large COff it helps.
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if first.Value > 5 {
			t.Errorf("m=%d: at COff=%.1f%% change=%v; expected ≤ ~0 (transformation should hurt)",
				s.M, 100*first.TargetFrac, first.Value)
		}
		if last.Value < 0 {
			t.Errorf("m=%d: at COff=%.0f%% change=%v; expected positive (transformation should help)",
				s.M, 100*last.TargetFrac, last.Value)
		}
	}
	tb := res.Table()
	if tb.NumRows() != len(cfg.Fractions) {
		t.Errorf("table rows = %d", tb.NumRows())
	}
	if !strings.Contains(res.SummaryTable().Text(), "paper") {
		t.Error("summary table missing paper column")
	}
}

func TestFig6Deterministic(t *testing.T) {
	cfg := quickCfg()
	cfg.Platforms = platform.Heteros(2)
	cfg.Fractions = []float64{0.1}
	a, err := Fig6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Series[0].Points[0].Value != b.Series[0].Points[0].Value {
		t.Fatal("same config produced different Fig6 values")
	}
}

func TestFig6PolicyAblation(t *testing.T) {
	cfg := quickCfg()
	cfg.Platforms = platform.Heteros(2)
	cfg.Fractions = []float64{0.3}
	if _, err := Fig6(context.Background(), cfg, sched.LIFO); err != nil {
		t.Fatalf("LIFO ablation failed: %v", err)
	}
}

func TestFig7QuickShape(t *testing.T) {
	cfg := quickCfg()
	cfg.TasksPerPoint = 5
	cfg.Fractions = []float64{0.02, 0.2, 0.5}
	panels := []Fig7Panel{{Platform: platform.Hetero(2), NMin: 3, NMax: 14}}
	res, err := Fig7(context.Background(), cfg, panels)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Panels) != 1 {
		t.Fatalf("panels = %d", len(res.Panels))
	}
	p := res.Panels[0]
	for _, pt := range p.Points {
		if pt.Proven == 0 {
			t.Fatalf("no instance proven optimal at %.0f%%", 100*pt.TargetFrac)
		}
		// Both bounds upper-bound the optimum: increments are ≥ 0.
		if pt.IncHom < -1e-9 || pt.IncHet < -1e-9 {
			t.Errorf("negative increment at %.0f%%: hom=%v het=%v (bound below optimum!)",
				100*pt.TargetFrac, pt.IncHom, pt.IncHet)
		}
	}
	// §5.3: Rhet pessimism decreases as COff increases.
	first, last := p.Points[0], p.Points[len(p.Points)-1]
	if !(last.IncHet < first.IncHet) {
		t.Errorf("Rhet pessimism did not decrease: %.1f%% → %.1f%%", first.IncHet, last.IncHet)
	}
	tables := res.Table()
	if len(tables) != 1 || tables[0].NumRows() != len(cfg.Fractions) {
		t.Error("fig7 table malformed")
	}
}

func TestFig8QuickShape(t *testing.T) {
	cfg := quickCfg()
	res, err := Fig8(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			sum := p.S1 + p.S21 + p.S22
			if math.Abs(sum-100) > 1e-6 {
				t.Errorf("m=%d COff=%.1f%%: scenario percentages sum to %v", s.M, 100*p.TargetFrac, sum)
			}
		}
		// §5.4: scenario 1 dominates for small COff.
		if s.Points[0].S1 < 50 {
			t.Errorf("m=%d: scenario 1 only %v%% at smallest COff", s.M, s.Points[0].S1)
		}
		// Scenario 2.1 grows with COff.
		if s.Points[len(s.Points)-1].S21 < s.Points[0].S21 {
			t.Errorf("m=%d: scenario 2.1 did not grow with COff", s.M)
		}
	}
	if len(res.Table()) != len(cfg.Platforms) {
		t.Error("fig8 table count")
	}
	_ = res.SummaryTable().Text()
}

// TestFig8Intersection pins the summary rule: stray scenario-2.1 shares
// while scenario 1 still holds the majority never count, and the reported
// point is the first past that majority where 2.1 holds at least 2.2's
// share.
func TestFig8Intersection(t *testing.T) {
	pt := func(frac, s1, s21, s22 float64) Fig8Point {
		return Fig8Point{TargetFrac: frac, S1: s1, S21: s21, S22: s22}
	}
	for _, tc := range []struct {
		name   string
		points []Fig8Point
		want   float64
		ok     bool
	}{
		{"stray 2.1 under a scenario-1 majority", []Fig8Point{
			pt(0.01, 91.67, 0, 8.33), pt(0.05, 83.33, 8.33, 8.33), pt(0.14, 0, 0, 100),
			pt(0.32, 0, 41.67, 58.33), pt(0.5, 0, 100, 0)}, 0.5, true},
		{"stray 2.1 over an empty 2.2", []Fig8Point{
			pt(0.005, 99, 1, 0), pt(0.01, 92, 5, 3), pt(0.2, 40, 10, 50), pt(0.26, 0, 60, 40)}, 0.26, true},
		{"2.1 takes over from scenario 1", []Fig8Point{
			pt(0.01, 90, 5, 5), pt(0.05, 30, 70, 0)}, 0.05, true},
		{"no majority for scenario 1 at all", []Fig8Point{
			pt(0.01, 40, 10, 50), pt(0.05, 0, 50, 50)}, 0.05, true},
		{"scenario 1 never loses the majority", []Fig8Point{
			pt(0.01, 95, 5, 0), pt(0.05, 60, 30, 10)}, 0, false},
		{"2.2 never overtaken", []Fig8Point{
			pt(0.01, 95, 5, 0), pt(0.05, 0, 30, 70)}, 0, false},
	} {
		got, ok := Fig8Series{M: 2, Points: tc.points}.Intersection()
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: Intersection() = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestNaiveViolationStudy(t *testing.T) {
	cfg := quickCfg()
	cfg.Platforms = platform.Heteros(2)
	cfg.TasksPerPoint = 6
	cfg.Fractions = []float64{0.1, 0.3}
	res, err := Naive(context.Background(), cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	anyViolation := false
	for _, s := range res.Series {
		for _, p := range s.Points {
			// The proven-safe bound must never be violated.
			if p.RhetViolationPct != 0 {
				t.Fatalf("m=%d COff=%.0f%%: Rhet violated on %.0f%% of tasks",
					s.M, 100*p.TargetFrac, p.RhetViolationPct)
			}
			if p.ViolationPct > 0 {
				anyViolation = true
				if p.WorstExcessPct <= 0 {
					t.Errorf("violation recorded with non-positive excess")
				}
			}
		}
	}
	// §3.2's point: the naive bound IS violated in practice.
	if !anyViolation {
		t.Error("no naive-bound violation found; §3.2 demonstration lost")
	}
	if len(res.Table()) != 1 {
		t.Error("naive table count")
	}
}

func TestFig9QuickShape(t *testing.T) {
	cfg := quickCfg()
	res, err := Fig9(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		last := s.Points[len(s.Points)-1]
		if last.Value <= 0 {
			t.Errorf("m=%d: Rhet not better than Rhom at COff=%.0f%% (Δ=%v)", s.M, 100*last.TargetFrac, last.Value)
		}
		if res.PeakMax[s.M] < res.PeakMean[s.M] {
			t.Errorf("m=%d: max observed %v below peak mean %v", s.M, res.PeakMax[s.M], res.PeakMean[s.M])
		}
	}
	// §5.4: the benefit shrinks as m grows (self-interference ÷ m): peak
	// mean for m=2 above peak mean for m=8.
	if res.PeakMean[2] <= res.PeakMean[8] {
		t.Errorf("peak mean benefit: m=2 %v ≤ m=8 %v; paper predicts the opposite order",
			res.PeakMean[2], res.PeakMean[8])
	}
	if !strings.Contains(res.SummaryTable().Text(), "crossover") {
		t.Error("fig9 summary table malformed")
	}
	if res.Table().NumRows() != len(cfg.Fractions) {
		t.Error("fig9 table rows")
	}
}

// TestParallelismDoesNotChangeResults: the batch fan-out must be
// bit-identical to the serial sweep — each grid point owns its generator.
func TestParallelismDoesNotChangeResults(t *testing.T) {
	cfg := quickCfg()
	cfg.Platforms = platform.Heteros(2, 4)
	cfg.Fractions = []float64{0.05, 0.3}
	cfg.Parallelism = 1
	serial, err := Fig9(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	par, err := Fig9(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for si := range serial.Series {
		for pi := range serial.Series[si].Points {
			a, b := serial.Series[si].Points[pi], par.Series[si].Points[pi]
			if a != b {
				t.Fatalf("series %d point %d differs: serial %+v parallel %+v", si, pi, a, b)
			}
		}
	}
}

// TestFigCancellation: a cancelled context aborts a sweep with its error.
func TestFigCancellation(t *testing.T) {
	cfg := quickCfg()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig6(ctx, cfg, nil); err == nil {
		t.Error("Fig6 with cancelled ctx succeeded")
	}
	if _, err := Fig7(ctx, cfg, nil); err == nil {
		t.Error("Fig7 with cancelled ctx succeeded")
	}
	if _, err := Fig8(ctx, cfg); err == nil {
		t.Error("Fig8 with cancelled ctx succeeded")
	}
	if _, err := Fig9(ctx, cfg); err == nil {
		t.Error("Fig9 with cancelled ctx succeeded")
	}
	if _, err := Naive(ctx, cfg, 4); err == nil {
		t.Error("Naive with cancelled ctx succeeded")
	}
}

func TestMultiSweepEndToEndDeterministic(t *testing.T) {
	cfg := QuickMulti(7)
	cfg.TasksPerPoint = 4
	cfg.ExactBudget = 20_000

	run := func(parallelism int) *MultiResult {
		c := cfg
		c.Parallelism = parallelism
		res, err := MultiSweep(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	if len(serial.Points) != len(cfg.Offloads)*len(cfg.DeviceClasses) {
		t.Fatalf("%d points, want %d", len(serial.Points), len(cfg.Offloads)*len(cfg.DeviceClasses))
	}
	for _, p := range serial.Points {
		if p.N != cfg.TasksPerPoint {
			t.Fatalf("point (k=%d c=%d) aggregated %d tasks, want %d", p.K, p.Classes, p.N, cfg.TasksPerPoint)
		}
		if p.MeanTyped < p.MeanSimOrig {
			t.Fatalf("point (k=%d c=%d): mean typed %v below mean sim %v", p.K, p.Classes, p.MeanTyped, p.MeanSimOrig)
		}
		if p.MeanExact > p.MeanSimOrig {
			t.Fatalf("point (k=%d c=%d): mean exact %v above mean sim %v", p.K, p.Classes, p.MeanExact, p.MeanSimOrig)
		}
		if p.Platform.Cores() != cfg.Cores || p.Platform.NumClasses() != p.Classes+1 {
			t.Fatalf("point (k=%d c=%d): platform %v", p.K, p.Classes, p.Platform)
		}
	}
	for _, par := range []int{2, 4} {
		got := run(par)
		if !reflect.DeepEqual(got, serial) {
			t.Fatalf("parallelism %d produced different sweep output", par)
		}
	}
}

func TestMultiSweepConfigValidation(t *testing.T) {
	bad := []func(*MultiConfig){
		func(c *MultiConfig) { c.Cores = 0 },
		func(c *MultiConfig) { c.DevicesPerClass = 0 },
		func(c *MultiConfig) { c.Offloads = nil },
		func(c *MultiConfig) { c.Offloads = []int{0} },
		func(c *MultiConfig) { c.DeviceClasses = nil },
		func(c *MultiConfig) { c.DeviceClasses = []int{-1} },
		func(c *MultiConfig) { c.TasksPerPoint = 0 },
		func(c *MultiConfig) { c.Frac = 1.2 },
		func(c *MultiConfig) { c.Parallelism = -1 },
	}
	for i, mutate := range bad {
		cfg := QuickMulti(1)
		mutate(&cfg)
		if _, err := MultiSweep(context.Background(), cfg); err == nil {
			t.Errorf("bad multi config %d accepted", i)
		}
	}
}
