package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

const resultSchema = "servebench/v1"

// resultFile is what -out writes: the build and machine record, every run
// and a summary per workload.
type resultFile struct {
	Schema    string           `json:"schema"`
	Config    config           `json:"config"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// config records everything that makes two result files comparable.
type config struct {
	Daemon           daemonBuild         `json:"daemon"`
	BenchGoVersion   string              `json:"bench_go_version"`
	NProc            int                 `json:"nproc"`
	GOMAXPROCSBench  int                 `json:"gomaxprocs_bench"`
	GOMAXPROCSDaemon int                 `json:"gomaxprocs_daemon"`
	Conns            int                 `json:"connections"`
	CPUModel         string              `json:"cpu_model"`
	DaemonFlags      map[string][]string `json:"daemon_flags"`
}

func (e *env) config(ws []workload) config {
	c := config{
		Daemon:           e.build,
		BenchGoVersion:   runtime.Version(),
		NProc:            runtime.NumCPU(),
		GOMAXPROCSBench:  runtime.GOMAXPROCS(0),
		GOMAXPROCSDaemon: daemonProcs,
		Conns:            e.conns,
		CPUModel:         cpuModel(),
		DaemonFlags:      make(map[string][]string),
	}
	for _, w := range ws {
		c.DaemonFlags[w.name] = w.cfg.args("<run-dir>/store.log")
	}
	return c
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workloadResult is every run of one workload and, per metric, the median
// and quartiles over them.
type workloadResult struct {
	Name    string             `json:"name"`
	Runs    []runResult        `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// summary is one metric over a workload's runs. IQRFrac is the distance
// between the quartiles as a share of the median: the run-to-run spread a
// bound must exceed.
type summary struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	IQRFrac float64 `json:"iqr_frac"`
}

func (wr *workloadResult) summarize() {
	wr.Summary = make(map[string]summary)
	add := func(name string, pick func(r runResult) (float64, bool)) {
		var xs []float64
		for _, r := range wr.Runs {
			if v, ok := pick(r); ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return
		}
		q1, med, q3 := quartiles(xs)
		wr.Summary[name] = summary{Median: med, Q1: q1, Q3: q3, IQRFrac: ratio(q3-q1, med)}
	}
	for _, m := range endToEnd {
		add(m.Name, func(r runResult) (float64, bool) { v, ok := r.EndToEnd[m.Name]; return v, ok })
	}
	for _, m := range perLayer() {
		add(m.Name, func(r runResult) (float64, bool) { v, ok := r.Layers[m.Name]; return v, ok })
	}
}

func printSummary(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "\n%s over %d runs: median [Q1, Q3] (IQR / median)\n", wr.Name, len(wr.Runs))
	for _, m := range endToEnd {
		s := wr.Summary[m.Name]
		fmt.Fprintf(w, "  %-32s %14.6g [%.6g, %.6g] (%.3f, bound %.2f) %s\n", m.Name, s.Median, s.Q1, s.Q3, s.IQRFrac, m.Bound, m.Unit)
	}
}

func writeResult(path string, res *resultFile) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if res.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, res.Schema, resultSchema)
	}
	return &res, nil
}

// compareFiles prints, for every workload and end-to-end metric both
// files hold, the two medians and how much worse the second is, marking
// changes beyond the metric's bound. Files recorded on a different CPU
// count or Go version are refused: their numbers measure other things.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	a, err := readResult(oldPath)
	if err != nil {
		return err
	}
	b, err := readResult(newPath)
	if err != nil {
		return err
	}
	if err := comparable(a.Config, b.Config); err != nil {
		return fmt.Errorf("refusing to compare %s with %s: %w", oldPath, newPath, err)
	}
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s\n", "workload", "metric", "old median", "new median", "worse by")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, m := range endToEnd {
				sa, okA := wa.Summary[m.Name]
				sb, okB := wb.Summary[m.Name]
				if !okA || !okB {
					continue
				}
				worse := ratio(sb.Median-sa.Median, sa.Median)
				if m.Better == "higher" {
					worse = -worse
				}
				flag := ""
				if worse > m.Bound {
					flag = fmt.Sprintf("  beyond bound %.2f", m.Bound)
				}
				fmt.Fprintf(w, "%-14s %-16s %14.6g %14.6g %+8.1f%%%s\n", wa.Name, m.Name, sa.Median, sb.Median, 100*worse, flag)
			}
		}
	}
	return nil
}

// comparable reports why two configurations must not be compared.
func comparable(a, b config) error {
	switch {
	case a.NProc != b.NProc:
		return fmt.Errorf("nproc %d vs %d", a.NProc, b.NProc)
	case a.Daemon.GoVersion != b.Daemon.GoVersion:
		return fmt.Errorf("go version %s vs %s", a.Daemon.GoVersion, b.Daemon.GoVersion)
	case a.Daemon.Race || b.Daemon.Race:
		return fmt.Errorf("a -race daemon")
	}
	return nil
}
