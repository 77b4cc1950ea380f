// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5):
//
//	-fig 6       Figure 6: avg execution time of τ vs τ' (breadth-first sim)
//	-fig 7       Figure 7: Rhom/Rhet pessimism vs exact minimum makespan
//	-fig 8       Figure 8: Theorem 1 scenario occurrence
//	-fig 9       Figure 9: % change of Rhom w.r.t. Rhet
//	-fig tables  the §5 text-quoted summary numbers (crossovers, peaks)
//	-fig naive   §3.2 violation study: sampled schedules vs the naive bound
//	-fig multi   beyond the paper: offload count × device classes sweep
//	             (generate → transform-all → typed bound → simulate → exact)
//	-fig taskset acceptance ratios of sporadic tasksets (utilization grid ×
//	             task count × offload mix, federated + global policies)
//	-fig all     everything
//
// -scale quick runs a reduced sweep (minutes); -scale paper reproduces the
// paper's sample sizes (100 DAGs/point, n ∈ [100,250]; Figure 7 budgeted).
// -parallel fans the per-(platform, COff%) points out on a worker pool —
// results are bit-identical at any parallelism. Tables print to stdout;
// -csv DIR additionally writes CSV files.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/table"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "which figure to regenerate: 6|7|8|9|tables|naive|multi|taskset|all")
		scale    = fs.String("scale", "quick", "experiment scale: quick, medium, or paper")
		seed     = fs.Int64("seed", 2018, "random seed")
		csvDir   = fs.String("csv", "", "directory for CSV output (optional)")
		ablate   = fs.Bool("policies", false, "with -fig 6: also run the LIFO policy ablation")
		parallel = fs.Int("parallel", 0, "worker-pool size for the sweep points (0 = all CPUs, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Quick(*seed)
	case "medium":
		cfg = experiments.Medium(*seed)
	case "paper":
		cfg = experiments.Default(*seed)
		cfg.ExactBudget = 2_000_000
	default:
		fmt.Fprintf(stderr, "experiments: unknown scale %q\n", *scale)
		return 2
	}
	cfg.Parallelism = *parallel

	ctx := context.Background()
	runner := &runner{csvDir: *csvDir, stdout: stdout, stderr: stderr}
	want := func(f string) bool { return *fig == "all" || *fig == f }

	if want("6") {
		res, err := experiments.Fig6(ctx, cfg, nil)
		if !runner.check(err) {
			return 1
		}
		runner.emit("fig6", res.Table())
		runner.emit("fig6_summary", res.SummaryTable())
		if *ablate {
			lifo, err := experiments.Fig6(ctx, cfg, sched.LIFO)
			if !runner.check(err) {
				return 1
			}
			runner.emit("fig6_lifo_ablation", lifo.Table())
		}
	}
	if want("7") {
		panels := experiments.PaperFig7Panels()
		if *scale == "quick" {
			panels = []experiments.Fig7Panel{
				{Platform: platform.Hetero(2), NMin: 3, NMax: 20},
				{Platform: platform.Hetero(8), NMin: 20, NMax: 40},
			}
		}
		res, err := experiments.Fig7(ctx, cfg, panels)
		if !runner.check(err) {
			return 1
		}
		for i, t := range res.Table() {
			runner.emit(fmt.Sprintf("fig7_panel%c", 'a'+i), t)
		}
	}
	if want("8") {
		res, err := experiments.Fig8(ctx, cfg)
		if !runner.check(err) {
			return 1
		}
		for i, t := range res.Table() {
			runner.emit(fmt.Sprintf("fig8_m%d", res.Series[i].M), t)
		}
		runner.emit("fig8_summary", res.SummaryTable())
	}
	if want("9") || want("tables") {
		fig9, err := experiments.Fig9(ctx, cfg)
		if !runner.check(err) {
			return 1
		}
		if want("9") {
			runner.emit("fig9", fig9.Table())
		}
		runner.emit("fig9_summary", fig9.SummaryTable())
	}
	if want("naive") {
		res, err := experiments.Naive(ctx, cfg, 32)
		if !runner.check(err) {
			return 1
		}
		for i, t := range res.Table() {
			runner.emit(fmt.Sprintf("naive_m%d", res.Series[i].M), t)
		}
	}
	if want("multi") {
		mcfg := experiments.DefaultMulti(*seed)
		if *scale == "quick" {
			mcfg = experiments.QuickMulti(*seed)
		}
		mcfg.Parallelism = *parallel
		res, err := experiments.MultiSweep(ctx, mcfg)
		if !runner.check(err) {
			return 1
		}
		runner.emit("multi_sweep", res.Table())
	}
	if want("taskset") {
		tcfg := experiments.DefaultTaskset(*seed)
		if *scale == "quick" {
			tcfg = experiments.QuickTaskset(*seed)
		}
		tcfg.Parallelism = *parallel
		res, err := experiments.TasksetSweep(ctx, tcfg)
		if !runner.check(err) {
			return 1
		}
		runner.emit("taskset_acceptance", res.Table())
	}
	if runner.failed {
		return 1
	}
	if runner.count == 0 {
		fmt.Fprintf(stderr, "experiments: nothing matched -fig %q\n", *fig)
		return 2
	}
	return 0
}

type runner struct {
	csvDir string
	stdout io.Writer
	stderr io.Writer
	count  int
	failed bool
}

func (r *runner) check(err error) bool {
	if err != nil {
		fmt.Fprintln(r.stderr, "experiments:", err)
		r.failed = true
		return false
	}
	return true
}

func (r *runner) emit(name string, t *table.Table) {
	r.count++
	if err := t.WriteText(r.stdout); err != nil {
		r.check(err)
		return
	}
	fmt.Fprintln(r.stdout)
	if r.csvDir == "" {
		return
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		r.check(err)
		return
	}
	f, err := os.Create(filepath.Join(r.csvDir, name+".csv"))
	if !r.check(err) {
		return
	}
	defer f.Close()
	r.check(t.WriteCSV(f))
}
