package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the quick-sweep golden instead of comparing against it")

// figuresGolden pins the output of `experiments -fig all -scale quick`.
// It lives with the experiments it pins; re-record it on purpose only:
//
//	go test ./cmd/experiments -run TestQuickFiguresGolden -update
const figuresGolden = "../../internal/experiments/testdata/figures_quick.txt"

// TestQuickFiguresGolden: the quick sweep of every figure and table is
// byte-identical to the golden, so a generator, transform or bound change
// that moves any figure fails tier-1.
func TestQuickFiguresGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fig", "all", "-scale", "quick"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
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
