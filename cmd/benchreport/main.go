// Command benchreport runs the repository's benchmark suite with -benchmem,
// emits a machine-readable JSON report (ns/op, B/op, allocs/op per
// benchmark), and compares it against a baseline report, failing on
// allocation regressions. It is the benchmark-regression harness: each PR
// commits a BENCH_<n>.json, and CI re-runs the suite against the committed
// file so an alloc/op regression larger than -threshold× fails the build.
//
// Usage:
//
//	benchreport -out BENCH_3.json                     # run, write, compare vs BENCH_2.json
//	benchreport -out BENCH_3.json -count 5 -benchtime 2x  # median of 5 runs per benchmark
//	benchreport -out report.json -baseline BENCH_2.json
//	benchreport -input bench.txt -out report.json     # parse an existing `go test -bench` log
//
// It times benchmarks in-process; the daemon's end-to-end performance
// record is the bench/ module (bash bench/run.sh).
//
// When -baseline is empty and -out matches BENCH_<n>.json, the baseline
// defaults to the BENCH_<k>.json with the largest k < n in the same
// directory (no comparison if none exists). Only regressions of allocs/op
// and of the resident-memory metrics B/entry and B/key fail the run, all
// at the same threshold: ns/op is too noisy on shared CI hardware, while
// allocation counts are deterministic for deterministic code and the
// memory metrics vary far less than the threshold.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Benchmark is one benchmark's result. With -count N the N runs of a
// benchmark fold into one entry: every figure is the median run's (the
// lower median for even N, so it is always an observed value), and the
// ns/op spread is kept as NsMin and NsMax.
type Benchmark struct {
	// Name is the benchmark name with any -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkAnalyze" or "BenchmarkAblationPolicies/lifo".
	Name string `json:"name"`
	// Iterations is b.N for the measured run.
	Iterations int64 `json:"iterations"`
	// NsPerOp, BytesPerOp and AllocsPerOp are the standard -benchmem
	// metrics.
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Runs is the number of runs folded into this entry, and NsMin and
	// NsMax their fastest and slowest ns/op; all three are omitted for a
	// single run.
	Runs  int     `json:"runs,omitempty"`
	NsMin float64 `json:"ns_min,omitempty"`
	NsMax float64 `json:"ns_max,omitempty"`
	// Metrics holds the metrics the benchmark reports itself
	// (b.ReportMetric), by unit, e.g. "exp/op".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Delta compares one benchmark between the current and the baseline run.
type Delta struct {
	Name string `json:"name"`
	// NsRatio and AllocsRatio are current/baseline; 1.0 means unchanged,
	// <1 is an improvement.
	NsRatio     float64 `json:"ns_ratio"`
	AllocsRatio float64 `json:"allocs_ratio"`
	// MetricRatios holds current/baseline of each gated metric (see
	// gatedMetrics) both runs report, by unit.
	MetricRatios map[string]float64 `json:"metric_ratios,omitempty"`
	// Regressed marks an allocs/op or gated-metric ratio above the
	// threshold.
	Regressed bool `json:"regressed,omitempty"`
}

// gatedMetrics are the custom metrics compare holds to the allocs/op
// threshold: the heap a resident cache or store index keeps per entry or
// per key.
var gatedMetrics = []string{"B/entry", "B/key"}

// Report is the emitted JSON document.
type Report struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// BaselineFile and Deltas are present when a baseline was compared.
	BaselineFile string  `json:"baseline_file,omitempty"`
	Deltas       []Delta `json:"deltas,omitempty"`
	// MissingFromCurrent lists baseline benchmarks absent from this run —
	// a renamed or deleted benchmark silently leaves the gate otherwise.
	MissingFromCurrent []string `json:"missing_from_current,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "output JSON path (required), e.g. BENCH_2.json")
		baseline  = fs.String("baseline", "", "baseline JSON to compare against (default: previous BENCH_<k>.json next to -out)")
		input     = fs.String("input", "", "parse this `go test -bench` output file instead of running the suite")
		pkg       = fs.String("pkg", ".", "package to benchmark")
		bench     = fs.String("bench", ".", "-bench regexp")
		benchtime = fs.String("benchtime", "1x", "-benchtime value")
		count     = fs.Int("count", 1, "-count value: runs per benchmark, folded into median, min and max ns/op")
		threshold = fs.Float64("threshold", 2.0, "fail when allocs/op, B/entry or B/key exceeds threshold × baseline")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "benchreport: -out is required")
		return 2
	}
	if *count < 1 {
		fmt.Fprintln(stderr, "benchreport: -count must be at least 1")
		return 2
	}

	var raw []byte
	var err error
	if *input != "" {
		raw, err = os.ReadFile(*input)
		if err != nil {
			fmt.Fprintln(stderr, "benchreport:", err)
			return 1
		}
	} else {
		cmd := exec.Command("go", "test", "-run", "^$", "-bench", *bench,
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count), "-benchmem", *pkg)
		cmd.Stderr = stderr
		raw, err = cmd.Output()
		if err != nil {
			fmt.Fprintln(stderr, "benchreport: go test -bench:", err)
			return 1
		}
	}

	runs, err := parseBench(string(raw))
	if err != nil {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}
	benches := fold(runs)
	if len(benches) == 0 {
		fmt.Fprintln(stderr, "benchreport: no benchmark lines found")
		return 1
	}

	rep := &Report{
		Schema:     "benchreport/v1",
		GoVersion:  runtime.Version(),
		Benchmarks: benches,
	}

	base := *baseline
	if base == "" {
		base = previousReport(*out)
	}
	regressed := false
	if base != "" {
		prev, err := readReport(base)
		if err != nil {
			fmt.Fprintln(stderr, "benchreport:", err)
			return 1
		}
		rep.BaselineFile = filepath.Base(base)
		rep.Deltas, rep.MissingFromCurrent, regressed = compare(prev.Benchmarks, benches, *threshold)
		for _, name := range rep.MissingFromCurrent {
			fmt.Fprintf(stderr, "benchreport: warning: baseline benchmark %s missing from this run (renamed or deleted?)\n", name)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(stderr, "benchreport:", err)
		return 1
	}

	printSummary(stdout, rep)
	if regressed {
		fmt.Fprintf(stderr, "benchreport: allocs/op or memory regression above %.1f× baseline %s\n", *threshold, base)
		return 1
	}
	return 0
}

// benchLine matches standard testing output, e.g.
//
//	BenchmarkFig6-4   2   58965415 ns/op   86468300 B/op   857633 allocs/op
//
// Metrics a benchmark reports itself (b.ReportMetric) are printed between
// ns/op and the memory columns, so everything after ns/op is read as
// value/unit pairs and picked by unit.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op((?:\s+\S+ \S+)*)`)

// parseBench extracts benchmark results from `go test -bench` output.
func parseBench(out string) ([]Benchmark, error) {
	var benches []Benchmark
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		pairs := strings.Fields(m[4])
		for i := 0; i+1 < len(pairs); i += 2 {
			switch unit := pairs[i+1]; unit {
			case "B/op":
				b.BytesPerOp, _ = strconv.ParseInt(pairs[i], 10, 64)
			case "allocs/op":
				b.AllocsPerOp, _ = strconv.ParseInt(pairs[i], 10, 64)
			default:
				v, err := strconv.ParseFloat(pairs[i], 64)
				if err != nil {
					return nil, fmt.Errorf("parsing %s in %q: %w", unit, line, err)
				}
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		benches = append(benches, b)
	}
	return benches, nil
}

// fold merges repeated runs of a benchmark (go test -count N) into one
// entry, in order of first appearance: the median run by ns/op supplies
// the iterations, the memory figures and every custom metric's value is
// its own median, and NsMin/NsMax record the spread. A benchmark that ran
// once is returned unchanged.
func fold(runs []Benchmark) []Benchmark {
	byName := make(map[string][]Benchmark)
	var order []string
	for _, b := range runs {
		if _, ok := byName[b.Name]; !ok {
			order = append(order, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].NsPerOp < rs[j].NsPerOp })
		b := rs[(len(rs)-1)/2]
		b.Runs, b.NsMin, b.NsMax = len(rs), rs[0].NsPerOp, rs[len(rs)-1].NsPerOp
		b.BytesPerOp = lowerMedian(rs, func(r Benchmark) int64 { return r.BytesPerOp })
		b.AllocsPerOp = lowerMedian(rs, func(r Benchmark) int64 { return r.AllocsPerOp })
		if b.Metrics != nil {
			metrics := make(map[string]float64, len(b.Metrics))
			for unit := range b.Metrics {
				metrics[unit] = lowerMedian(rs, func(r Benchmark) float64 { return r.Metrics[unit] })
			}
			b.Metrics = metrics
		}
		out = append(out, b)
	}
	return out
}

// lowerMedian returns the lower median of f over rs.
func lowerMedian[T int64 | float64](rs []Benchmark, f func(Benchmark) T) T {
	vs := make([]T, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs[(len(vs)-1)/2]
}

// benchFileRE is the BENCH_<n>.json naming convention shared by -out and
// baseline auto-discovery.
var benchFileRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// previousReport finds the BENCH_<k>.json with the largest k below the
// index of out (itself expected to look like .../BENCH_<n>.json). Returns
// "" when out does not follow the convention or no predecessor exists.
func previousReport(out string) string {
	m := benchFileRE.FindStringSubmatch(filepath.Base(out))
	if m == nil {
		return ""
	}
	n, _ := strconv.Atoi(m[1])
	dir := filepath.Dir(out)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return ""
	}
	bestK := -1
	best := ""
	for _, e := range entries {
		mm := benchFileRE.FindStringSubmatch(e.Name())
		if mm == nil {
			continue
		}
		k, _ := strconv.Atoi(mm[1])
		if k < n && k > bestK {
			bestK = k
			best = filepath.Join(dir, e.Name())
		}
	}
	return best
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &rep, nil
}

// compare produces per-benchmark deltas (for benchmarks present in both
// runs), the baseline benchmarks missing from the current run, and whether
// any allocs/op or gated-metric ratio exceeds the threshold.
func compare(baseline, current []Benchmark, threshold float64) (deltas []Delta, missing []string, regressed bool) {
	prev := make(map[string]Benchmark, len(baseline))
	for _, b := range baseline {
		prev[b.Name] = b
	}
	seen := make(map[string]bool, len(current))
	for _, b := range current {
		seen[b.Name] = true
		p, ok := prev[b.Name]
		if !ok {
			continue
		}
		d := Delta{Name: b.Name, NsRatio: ratio(b.NsPerOp, p.NsPerOp),
			AllocsRatio: ratio(float64(b.AllocsPerOp), float64(p.AllocsPerOp))}
		// A zero-alloc baseline is a hard promise (e.g. cache-hit paths):
		// ANY allocation there regresses, ratio or no ratio.
		d.Regressed = d.AllocsRatio > threshold || (p.AllocsPerOp == 0 && b.AllocsPerOp > 0)
		for _, unit := range gatedMetrics {
			pv, okP := p.Metrics[unit]
			cv, okC := b.Metrics[unit]
			if !okP || !okC {
				continue
			}
			if d.MetricRatios == nil {
				d.MetricRatios = make(map[string]float64)
			}
			d.MetricRatios[unit] = ratio(cv, pv)
			d.Regressed = d.Regressed || d.MetricRatios[unit] > threshold
		}
		regressed = regressed || d.Regressed
		deltas = append(deltas, d)
	}
	for _, b := range baseline {
		if !seen[b.Name] {
			missing = append(missing, b.Name)
		}
	}
	sort.Strings(missing)
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas, missing, regressed
}

// ratio returns cur/base. A zero base with nonzero cur has no meaningful
// ratio; the absolute value is reported (compare flags that case as a
// regression independently of the threshold).
func ratio(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 1
		}
		return cur
	}
	return cur / base
}

func printSummary(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "%-55s %14s %12s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, b := range rep.Benchmarks {
		fmt.Fprintf(w, "%-55s %14.0f %12d %12d", b.Name, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
		if b.Runs > 1 {
			fmt.Fprintf(w, "  median of %d, ns/op %.0f..%.0f", b.Runs, b.NsMin, b.NsMax)
		}
		fmt.Fprintln(w)
	}
	if len(rep.Deltas) > 0 {
		fmt.Fprintf(w, "\nvs %s (ratio, <1 is better):\n", rep.BaselineFile)
		for _, d := range rep.Deltas {
			mark := ""
			if d.Regressed {
				mark = "  REGRESSED"
			}
			fmt.Fprintf(w, "%-55s %8.2fx ns %8.2fx allocs", d.Name, d.NsRatio, d.AllocsRatio)
			for _, unit := range gatedMetrics {
				if r, ok := d.MetricRatios[unit]; ok {
					fmt.Fprintf(w, " %8.2fx %s", r, unit)
				}
			}
			fmt.Fprintln(w, mark)
		}
	}
}
