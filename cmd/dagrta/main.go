// Command dagrta analyzes heterogeneous DAG tasks (JSON produced by
// cmd/daggen or by hand) through the hetrta.Analyzer: it prints vol/len,
// the homogeneous bound Rhom (Eq. 1), the transformed task's heterogeneous
// bound Rhet with its Theorem 1 scenario, the unsafe naive bound for
// comparison, and optionally a simulated schedule and the exact minimum
// makespan.
//
// Usage:
//
//	dagrta -in task.json -m 4 [-deadline 120] [-sim] [-gantt] [-exact] [-check]
//	dagrta -m 8 -parallel 4 -json tasks/*.json   # batch, JSON reports
//
// With several input files the analysis fans out on the Analyzer's worker
// pool (-parallel) and reports print in input order. -json always emits a
// JSON array of reports, one element per input, even for a single input.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	hetrta "repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dagrta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input JSON file ('-' = stdin); positional arguments add more inputs")
		m        = fs.Int("m", 4, "number of host cores")
		devices  = fs.Int("devices", 1, "number of accelerator devices")
		platSpec = fs.String("platform", "", `platform spec overriding -m/-devices, e.g. "4+1" or "host=4,gpu=1,fpga=2"`)
		deadline = fs.Int64("deadline", 0, "relative deadline D for a schedulability verdict (0 = skip)")
		doSim    = fs.Bool("sim", false, "simulate τ and τ' under the breadth-first scheduler")
		doGantt  = fs.Bool("gantt", false, "print ASCII Gantt charts of the simulations (implies -sim)")
		doExact  = fs.Bool("exact", false, "compute the exact minimum makespan (n ≤ 64)")
		doCheck  = fs.Bool("check", false, "verify the transformation invariants (Algorithm 1 post-conditions)")
		budget   = fs.Int64("budget", 0, "exact-solver expansion budget (0 = default)")
		svgOut   = fs.String("svg", "", "write an SVG Gantt chart of the transformed task's schedule to this file (single input only)")
		asJSON   = fs.Bool("json", false, "emit the reports as JSON instead of text")
		parallel = fs.Int("parallel", 0, "worker-pool size for multiple inputs (0 = all CPUs)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	inputs := fs.Args()
	if *in != "" {
		inputs = append([]string{*in}, inputs...)
	}
	if len(inputs) == 0 {
		inputs = []string{"-"}
	}
	if *svgOut != "" && len(inputs) > 1 {
		fmt.Fprintln(stderr, "dagrta: -svg needs a single input")
		return 2
	}

	plat, err := hetrta.HeteroPlatform(*m).WithDeviceCount(*devices)
	if *platSpec != "" {
		plat, err = hetrta.ParsePlatform(*platSpec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dagrta:", err)
		return 2
	}
	opts := []hetrta.Option{
		hetrta.WithPlatform(plat),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.NaiveBound(), hetrta.TypedRhomBound()),
		hetrta.WithParallelism(*parallel),
	}
	needSim := *doSim || *doGantt || *svgOut != ""
	if needSim {
		opts = append(opts, hetrta.WithPolicy(hetrta.BreadthFirst))
	}
	if *doExact {
		opts = append(opts, hetrta.WithExactBudget(*budget))
	}
	an, err := hetrta.NewAnalyzer(opts...)
	if err != nil {
		fmt.Fprintln(stderr, "dagrta:", err)
		return 1
	}

	graphs := make([]*hetrta.Graph, len(inputs))
	for i, path := range inputs {
		g, err := readGraph(path, stdin)
		if err != nil {
			fmt.Fprintf(stderr, "dagrta: %s: %v\n", path, err)
			return 1
		}
		graphs[i] = g
	}

	reports, err := an.AnalyzeBatch(context.Background(), graphs)
	if err != nil {
		fmt.Fprintln(stderr, "dagrta:", err)
		return 1
	}

	if *asJSON {
		// Always an array, so the output schema does not depend on how
		// many inputs a glob happened to match.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(stderr, "dagrta:", err)
			return 1
		}
	}

	exitCode := 0
	for i, rep := range reports {
		if rep.Err != "" {
			fmt.Fprintf(stderr, "dagrta: %s: %s\n", inputs[i], rep.Err)
			exitCode = 1
			continue
		}
		if !*asJSON {
			if len(reports) > 1 {
				fmt.Fprintf(stdout, "== %s ==\n", inputs[i])
			}
			printReport(stdout, rep, graphs[i], *deadline, *doGantt || *doSim, *doGantt)
		}
		if *doCheck && rep.TransformResult != nil {
			if err := hetrta.CheckTransform(rep.TransformResult); err != nil {
				fmt.Fprintf(stderr, "dagrta: %s: transform check: %v\n", inputs[i], err)
				exitCode = 1
				continue
			}
			if !*asJSON {
				fmt.Fprintln(stdout, "transform check: OK")
			}
		}
		if *svgOut != "" && rep.SimTransformed != nil {
			if err := writeSVG(*svgOut, rep); err != nil {
				fmt.Fprintln(stderr, "dagrta:", err)
				return 1
			}
			if !*asJSON {
				fmt.Fprintf(stdout, "wrote %s\n", *svgOut)
			}
		}
	}
	return exitCode
}

func printReport(w io.Writer, rep *hetrta.Report, g *hetrta.Graph, deadline int64, sim, gantt bool) {
	gs := rep.Graph
	fmt.Fprintf(w, "task: n=%d edges=%d vol=%d len=%d (platform %s)\n",
		gs.Nodes, gs.Edges, gs.Volume, gs.CriticalPath, rep.Platform)
	if gs.ReducedEdges > 0 {
		fmt.Fprintf(w, "note: removed %d redundant edge(s) before analysis\n", gs.ReducedEdges)
	}
	if off := gs.Offload; off != nil {
		fmt.Fprintf(w, "offload: node %s with COff=%d (%.1f%% of volume)\n", off.Name, off.COff, 100*off.Frac)
	} else if gs.Offloads > 1 {
		fmt.Fprintf(w, "offload: %d nodes (multi-offload extension)\n", gs.Offloads)
		for _, st := range rep.Transforms {
			fmt.Fprintf(w, "  gated %s (COff=%d, class %d) by sync node %d\n", st.Name, st.COff, st.Class, st.Gate)
		}
	} else {
		fmt.Fprintln(w, "offload: none (homogeneous task)")
	}

	for _, b := range rep.Bounds {
		label := b.Name
		switch b.Name {
		case "rhom":
			label = "Rhom(τ) "
		case "rhet":
			label = "Rhet(τ')"
		case "naive":
			label = "naive   "
		}
		if b.Skipped != "" {
			fmt.Fprintf(w, "%s: skipped (%s)\n", label, b.Skipped)
			continue
		}
		fmt.Fprintf(w, "%s: %.2f", label, b.Value)
		if b.Scenario != "" {
			fmt.Fprintf(w, " (%s", b.Scenario)
			if tr := rep.Transform; tr != nil {
				fmt.Fprintf(w, "; len'=%d lenPar=%d volPar=%d", tr.LenPrime, tr.LenPar, tr.VolPar)
			}
			fmt.Fprint(w, ")")
		}
		if b.Unsafe {
			fmt.Fprint(w, " (UNSAFE, shown for comparison)")
		}
		fmt.Fprintln(w)
	}

	if deadline > 0 {
		name := "rhet"
		if _, ok := rep.Schedulable(name, deadline); !ok {
			name = "rhom"
		}
		if s, ok := rep.Schedulable(name, deadline); ok {
			verdict := "NOT schedulable"
			if s {
				verdict = "schedulable"
			}
			fmt.Fprintf(w, "deadline %d: %s under %s\n", deadline, verdict, name)
		}
	}

	if sim && rep.Simulation != nil {
		if rep.Simulation.MakespanTransformed > 0 {
			fmt.Fprintf(w, "simulated makespan (%s): τ=%d τ'=%d\n",
				rep.Simulation.Policy, rep.Simulation.Makespan, rep.Simulation.MakespanTransformed)
		} else {
			fmt.Fprintf(w, "simulated makespan (%s): τ=%d\n", rep.Simulation.Policy, rep.Simulation.Makespan)
		}
		if gantt {
			fmt.Fprintln(w, "τ schedule:")
			fmt.Fprint(w, rep.SimOriginal.Gantt(g, 72))
			if rep.SimTransformed != nil {
				fmt.Fprintln(w, "τ' schedule:")
				fmt.Fprint(w, rep.SimTransformed.Gantt(rep.TransformResult.Transformed, 72))
			}
		}
	}

	if rep.Exact != nil {
		fmt.Fprintf(w, "exact min makespan: %d (%s, %d expansions, lower bound %d)\n",
			rep.Exact.Makespan, rep.Exact.Status, rep.Exact.Expansions, rep.Exact.LowerBound)
	}
}

func writeSVG(path string, rep *hetrta.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.SimTransformed.WriteSVG(f, rep.TransformResult.Transformed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readGraph(path string, stdin io.Reader) (*hetrta.Graph, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	g := hetrta.NewGraph()
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	return g, nil
}
