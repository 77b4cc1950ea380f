package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
	if benches[0] != want {
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
		BytesPerOp: 4749299, AllocsPerOp: 17504}
	if len(benches) != 1 || benches[0] != want {
		t.Fatalf("parsed %+v, want [%+v]", benches, want)
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
		{Name: "BenchmarkNew", NsPerOp: 5, AllocsPerOp: 5},   // no baseline: skipped
	}
	deltas, missing, regressed := compare(baseline, current, 2.0)
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
}

func TestCompareZeroAllocBaseline(t *testing.T) {
	baseline := []Benchmark{{Name: "BenchmarkCacheHit", NsPerOp: 10, AllocsPerOp: 0}}
	// Even a single allocation against a zero-alloc baseline must fail,
	// regardless of the ratio threshold.
	deltas, _, regressed := compare(baseline,
		[]Benchmark{{Name: "BenchmarkCacheHit", NsPerOp: 10, AllocsPerOp: 1}}, 2.0)
	if !regressed || !deltas[0].Regressed {
		t.Fatalf("0 -> 1 allocs/op not flagged: %+v", deltas)
	}
	// 0 -> 0 is clean.
	deltas, _, regressed = compare(baseline,
		[]Benchmark{{Name: "BenchmarkCacheHit", NsPerOp: 12, AllocsPerOp: 0}}, 2.0)
	if regressed || deltas[0].Regressed || deltas[0].AllocsRatio != 1 {
		t.Fatalf("0 -> 0 allocs/op flagged: %+v", deltas)
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
