package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the quick-sweep golden instead of comparing against it")

// figuresGolden pins the output of `experiments -fig all -scale quick`.
// It lives with the experiments it pins; re-record it on purpose only:
//
//	go test ./cmd/experiments -run TestQuickFiguresGolden -update
const figuresGolden = "../../internal/experiments/testdata/figures_quick.txt"

// maskWallClock replaces the wall-clock cells of the admission-churn
// tables with "*": the latency table's µs columns and the summary's
// p50 speedup. Every other line is deterministic at any -parallel. The
// latency table's lines are re-joined with single spaces, because its
// column widths follow the masked cells.
func maskWallClock(out string) string {
	lines := strings.Split(out, "\n")
	block := ""
	for i, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) == 0:
			block = ""
		case strings.HasPrefix(l, "Admission churn on "):
			block = "latency"
		case l == "Admission churn summary":
			block = "summary"
		case block == "latency" && strings.Trim(l, "-") == "":
			lines[i] = "-"
		case block == "latency" && len(f) == 6 && (f[0] == "delta" || f[0] == "full"):
			lines[i] = strings.Join(append(f[:2], "*", "*", "*", "*"), " ")
		case block == "latency":
			lines[i] = strings.Join(f, " ")
		case block == "summary":
			if _, err := strconv.ParseFloat(f[0], 64); err == nil {
				lines[i] = "*" + strings.TrimPrefix(l, f[0])
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestQuickFiguresGolden: the quick sweep of every figure and table is
// byte-identical to the golden, apart from the masked wall-clock cells,
// so a generator, transform or bound change that moves any figure fails
// tier-1.
func TestQuickFiguresGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "all", "-scale", "quick"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := maskWallClock(out.String())
	if *update {
		if err := os.WriteFile(figuresGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatalf("%v (record with: go test ./cmd/experiments -run TestQuickFiguresGolden -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("quick sweep drifted from %s at line %d (re-record with -update if deliberate)\ngot:  %q\nwant: %q", figuresGolden, i+1, g, w)
			}
		}
	}
}

func TestRunFig9QuickParallel(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-fig", "9", "-scale", "quick", "-parallel", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "Figure 9") || !strings.Contains(s, "crossover") {
		t.Errorf("fig9 tables missing:\n%s", s)
	}
}

func TestRunParallelismIsDeterministic(t *testing.T) {
	gen := func(parallel string) string {
		var out, errb bytes.Buffer
		if code := run([]string{"-fig", "8", "-scale", "quick", "-parallel", parallel}, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		return out.String()
	}
	if gen("1") != gen("4") {
		t.Error("-parallel changed the experiment output")
	}
}

func TestRunCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-fig", "tables", "-scale", "quick", "-csv", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig9_summary.csv"))
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	if !strings.Contains(string(data), "crossover") {
		t.Errorf("CSV content unexpected: %s", data)
	}
}

func TestRunBadArgs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scale", "galactic"}, &out, &errb); code != 2 {
		t.Errorf("unknown scale: exit %d, want 2", code)
	}
	if code := run([]string{"-fig", "42"}, &out, &errb); code != 2 {
		t.Errorf("unknown fig: exit %d, want 2", code)
	}
	if code := run([]string{"-zzz"}, &out, &errb); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

func TestRunFigTaskset(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-fig", "taskset", "-scale", "quick", "-parallel", "2", "-csv", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "Acceptance ratio") || !strings.Contains(s, "federated") || !strings.Contains(s, "global") {
		t.Errorf("taskset table missing:\n%s", s)
	}
	if _, err := os.Stat(filepath.Join(dir, "taskset_acceptance.csv")); err != nil {
		t.Errorf("CSV not written: %v", err)
	}
}
