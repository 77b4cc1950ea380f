package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig6                             	       2	  58965415 ns/op	86468300 B/op	  857633 allocs/op
BenchmarkAnalyze                          	       2	    136220 ns/op	  156312 B/op	    1053 allocs/op
BenchmarkAblationPolicies/breadth-first                      	       2	     36598 ns/op	   23192 B/op	     354 allocs/op
PASS
ok  	repro	1.235s
`

func TestParseBench(t *testing.T) {
	benches, err := parseBench(sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(benches), benches)
	}
	want := Benchmark{Name: "BenchmarkFig6", Iterations: 2, NsPerOp: 58965415,
		BytesPerOp: 86468300, AllocsPerOp: 857633}
	if !reflect.DeepEqual(benches[0], want) {
		t.Errorf("benches[0] = %+v, want %+v", benches[0], want)
	}
	if benches[2].Name != "BenchmarkAblationPolicies/breadth-first" {
		t.Errorf("sub-benchmark name = %q (GOMAXPROCS suffix must be stripped)", benches[2].Name)
	}
}

// A benchmark that reports its own metrics prints them between ns/op and
// the memory columns; the allocation gate must still see allocs/op.
func TestParseBenchCustomMetrics(t *testing.T) {
	out := "BenchmarkExactMiss-2   \t      14\t  85903108 ns/op\t        19.00 capped/op\t    225087 exp/op\t 4749299 B/op\t   17504 allocs/op\n"
	benches, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	want := Benchmark{Name: "BenchmarkExactMiss", Iterations: 14, NsPerOp: 85903108,
		BytesPerOp: 4749299, AllocsPerOp: 17504,
		Metrics: map[string]float64{"capped/op": 19, "exp/op": 225087}}
	if len(benches) != 1 || !reflect.DeepEqual(benches[0], want) {
		t.Fatalf("parsed %+v, want [%+v]", benches, want)
	}
}

// With -count N every benchmark prints N lines; fold keeps one entry per
// benchmark with the median run's figures and the ns/op spread.
func TestFoldCountRuns(t *testing.T) {
	out := `BenchmarkExactMiss-2   	      12	 100000000 ns/op	        19.00 capped/op	    225087 exp/op	 4000000 B/op	   17200 allocs/op
BenchmarkAnalyze-2     	       2	    136220 ns/op	  156312 B/op	    1053 allocs/op
BenchmarkExactMiss-2   	      10	 120000000 ns/op	        19.00 capped/op	    225087 exp/op	 5000000 B/op	   17210 allocs/op
BenchmarkExactMiss-2   	      12	  90000000 ns/op	        19.00 capped/op	    225087 exp/op	 3000000 B/op	   17190 allocs/op
BenchmarkExactMiss-2   	      11	 110000000 ns/op	        19.00 capped/op	    225087 exp/op	 4500000 B/op	   17205 allocs/op
`
	runs, err := parseBench(out)
	if err != nil {
		t.Fatal(err)
	}
	got := fold(runs)
	want := []Benchmark{
		{Name: "BenchmarkExactMiss", Iterations: 12, NsPerOp: 100000000,
			BytesPerOp: 4000000, AllocsPerOp: 17200,
			Runs: 4, NsMin: 90000000, NsMax: 120000000,
			Metrics: map[string]float64{"capped/op": 19, "exp/op": 225087}},
		{Name: "BenchmarkAnalyze", Iterations: 2, NsPerOp: 136220, BytesPerOp: 156312, AllocsPerOp: 1053},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold =\n%+v\nwant\n%+v", got, want)
	}
	data, err := json.Marshal(got[1])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "runs") || strings.Contains(string(data), "metrics") {
		t.Fatalf("a single plain run must keep the old record shape: %s", data)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	baseline := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 1, AllocsPerOp: 1},
	}
	current := []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 120, AllocsPerOp: 150}, // 1.5x: fine
		{Name: "BenchmarkB", NsPerOp: 90, AllocsPerOp: 250},  // 2.5x: regressed
		{Name: "BenchmarkNew", NsPerOp: 5, AllocsPerOp: 5},   // no baseline: reported
	}
	deltas, missing, unbaselined, regressed := compare(baseline, current, 2.0)
	if !regressed {
		t.Fatal("2.5x allocs growth not flagged as regression")
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2 (only common benchmarks): %+v", len(deltas), deltas)
	}
	if deltas[0].Name != "BenchmarkA" || deltas[0].Regressed {
		t.Errorf("BenchmarkA delta wrong: %+v", deltas[0])
	}
	if !deltas[1].Regressed || deltas[1].AllocsRatio != 2.5 {
		t.Errorf("BenchmarkB delta wrong: %+v", deltas[1])
	}
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Errorf("missing = %v, want [BenchmarkGone]: a vanished benchmark must be reported", missing)
	}
	if len(unbaselined) != 1 || unbaselined[0] != "BenchmarkNew" {
		t.Errorf("unbaselined = %v, want [BenchmarkNew]: a benchmark without a baseline row must be reported", unbaselined)
	}
}

func TestCompareZeroAllocBaseline(t *testing.T) {
	baseline := []Benchmark{{Name: "BenchmarkCacheHit", NsPerOp: 10, AllocsPerOp: 0}}
	// Even a single allocation against a zero-alloc baseline must fail,
	// regardless of the ratio threshold.
	deltas, _, _, regressed := compare(baseline,
		[]Benchmark{{Name: "BenchmarkCacheHit", NsPerOp: 10, AllocsPerOp: 1}}, 2.0)
	if !regressed || !deltas[0].Regressed {
		t.Fatalf("0 -> 1 allocs/op not flagged: %+v", deltas)
	}
	// 0 -> 0 is clean.
	deltas, _, _, regressed = compare(baseline,
		[]Benchmark{{Name: "BenchmarkCacheHit", NsPerOp: 12, AllocsPerOp: 0}}, 2.0)
	if regressed || deltas[0].Regressed || deltas[0].AllocsRatio != 1 {
		t.Fatalf("0 -> 0 allocs/op flagged: %+v", deltas)
	}
}

// TestCompareGatesMemoryMetrics: B/entry and B/key are held to the
// allocs/op threshold when both runs report them; other custom metrics,
// and a metric only one run reports, are not gated.
func TestCompareGatesMemoryMetrics(t *testing.T) {
	baseline := []Benchmark{
		{Name: "BenchmarkFill", AllocsPerOp: 10, Metrics: map[string]float64{"B/entry": 1000, "exp/op": 5}},
		{Name: "BenchmarkOpen", AllocsPerOp: 10, Metrics: map[string]float64{"B/key": 50}},
		{Name: "BenchmarkNew", AllocsPerOp: 10},
	}
	current := []Benchmark{
		{Name: "BenchmarkFill", AllocsPerOp: 10, Metrics: map[string]float64{"B/entry": 1900, "exp/op": 50}},
		{Name: "BenchmarkOpen", AllocsPerOp: 10, Metrics: map[string]float64{"B/key": 120}},
		{Name: "BenchmarkNew", AllocsPerOp: 10, Metrics: map[string]float64{"B/entry": 9999}},
	}
	deltas, _, _, regressed := compare(baseline, current, 2.0)
	if !regressed {
		t.Fatal("2.4x B/key growth not flagged as regression")
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkFill"]; d.Regressed || d.MetricRatios["B/entry"] != 1.9 || len(d.MetricRatios) != 1 {
		t.Errorf("BenchmarkFill: %+v; want B/entry 1.9x, not regressed, exp/op ungated", d)
	}
	if d := byName["BenchmarkOpen"]; !d.Regressed || d.MetricRatios["B/key"] != 2.4 {
		t.Errorf("BenchmarkOpen: %+v; want B/key 2.4x, regressed", d)
	}
	if d := byName["BenchmarkNew"]; d.Regressed || d.MetricRatios != nil {
		t.Errorf("BenchmarkNew: %+v; a metric without a baseline value is not gated", d)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}

	// First report becomes the baseline.
	out1 := filepath.Join(dir, "BENCH_1.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-input", in, "-out", out1}, &stdout, &stderr); code != 0 {
		t.Fatalf("first run exit %d: %s", code, stderr.String())
	}

	// Second report auto-discovers BENCH_1.json; identical numbers pass.
	out2 := filepath.Join(dir, "BENCH_2.json")
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-input", in, "-out", out2}, &stdout, &stderr); code != 0 {
		t.Fatalf("second run exit %d: %s", code, stderr.String())
	}
	rep, err := readReport(out2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineFile != "BENCH_1.json" {
		t.Errorf("baseline = %q, want auto-discovered BENCH_1.json", rep.BaselineFile)
	}
	if len(rep.Deltas) != 3 {
		t.Errorf("got %d deltas, want 3", len(rep.Deltas))
	}
	for _, d := range rep.Deltas {
		if d.NsRatio != 1 || d.AllocsRatio != 1 || d.Regressed {
			t.Errorf("identical runs should have unit ratios: %+v", d)
		}
	}
	if !strings.Contains(stdout.String(), "BenchmarkFig6") {
		t.Errorf("summary missing benchmark name:\n%s", stdout.String())
	}

	// A 3x allocs/op growth against the committed baseline must fail.
	worse := strings.ReplaceAll(sampleOutput, "1053 allocs/op", "4000 allocs/op")
	if err := os.WriteFile(in, []byte(worse), 0o644); err != nil {
		t.Fatal(err)
	}
	out3 := filepath.Join(dir, "BENCH_3.json")
	stderr.Reset()
	if code := run([]string{"-input", in, "-out", out3}, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed run exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "regression") {
		t.Errorf("stderr missing regression message: %s", stderr.String())
	}

	// The emitted JSON is a valid benchreport/v1 document.
	data, err := os.ReadFile(out3)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != "benchreport/v1" {
		t.Errorf("schema = %v", doc["schema"])
	}

	// A benchmark the baseline has no row for fails the run, and the
	// report naming it is still written.
	extra := sampleOutput + "BenchmarkAnalyzeHandler-2   \t       2\t     50000 ns/op\t    4096 B/op\t      12 allocs/op\n"
	if err := os.WriteFile(in, []byte(extra), 0o644); err != nil {
		t.Fatal(err)
	}
	out4 := filepath.Join(dir, "BENCH_4.json")
	stderr.Reset()
	if code := run([]string{"-input", in, "-out", out4}, &stdout, &stderr); code != 1 {
		t.Fatalf("unbaselined benchmark: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "BenchmarkAnalyzeHandler has no row in baseline") {
		t.Errorf("stderr does not name the unbaselined benchmark: %s", stderr.String())
	}
	if rep, err = readReport(out4); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.MissingFromBaseline, []string{"BenchmarkAnalyzeHandler"}) {
		t.Errorf("missing_from_baseline = %v, want [BenchmarkAnalyzeHandler]", rep.MissingFromBaseline)
	}
}

func TestPreviousReport(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_0.json", "BENCH_2.json", "other.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := previousReport(filepath.Join(dir, "BENCH_3.json")); filepath.Base(got) != "BENCH_2.json" {
		t.Errorf("previousReport(BENCH_3) = %q, want BENCH_2.json", got)
	}
	if got := previousReport(filepath.Join(dir, "BENCH_2.json")); filepath.Base(got) != "BENCH_0.json" {
		t.Errorf("previousReport(BENCH_2) = %q, want BENCH_0.json", got)
	}
	if got := previousReport(filepath.Join(dir, "BENCH_0.json")); got != "" {
		t.Errorf("previousReport(BENCH_0) = %q, want none", got)
	}
	if got := previousReport(filepath.Join(dir, "custom.json")); got != "" {
		t.Errorf("previousReport(custom) = %q, want none", got)
	}
}
