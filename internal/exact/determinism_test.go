package exact_test

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	hetrta "repro"
)

// TestReportBytesIndependentOfGOMAXPROCS analyzes the analyze-miss serving
// population — 200 Small(8,24) graphs from seed 2 with c_off 0.15 — under
// that workload's analyzer (4+1, the three safe bounds, the breadth-first
// simulation, the exact stage with a 10k budget, degradation on) twice at
// GOMAXPROCS 1 and twice at GOMAXPROCS 2, and requires the same report
// bytes every time. AnalyzeBatch runs one analysis per P, so at GOMAXPROCS
// 2 two searches run at once and pass pooled memos between them. Served
// bytes are cached and stored under a key that leaves the CPU count out,
// so they must not depend on it.
func TestReportBytesIndependentOfGOMAXPROCS(t *testing.T) {
	plat, err := hetrta.ParsePlatform("4+1")
	if err != nil {
		t.Fatal(err)
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(plat),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()),
		hetrta.WithPolicy(hetrta.BreadthFirst),
		hetrta.WithExactBudget(10_000),
		hetrta.WithDegradation(hetrta.DegradeOptions{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(8, 24), 2)
	if err != nil {
		t.Fatal(err)
	}
	gs := make([]*hetrta.Graph, 200)
	for i := range gs {
		if gs[i], _, _, err = gen.HetTask(0.15); err != nil {
			t.Fatal(err)
		}
	}

	analyze := func(procs int) [][]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		reps, err := an.AnalyzeBatch(context.Background(), gs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(reps))
		for i, rep := range reps {
			if rep.Err != "" {
				t.Fatalf("graph %d: %s", i, rep.Err)
			}
			if out[i], err = json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}

	want := analyze(1)
	for run, procs := range []int{1, 2, 2} {
		got := analyze(procs)
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("run %d at GOMAXPROCS %d, graph %d:\n got %s\nwant %s", run+2, procs, i, got[i], want[i])
			}
		}
	}

	// The population must exercise both ends of the search: proofs that
	// needed branching and budget-capped brackets.
	var searched, capped int
	for _, b := range want {
		var rep struct {
			Exact hetrta.ExactReport `json:"exact"`
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		switch {
		case rep.Exact.Status == "feasible":
			capped++
		case rep.Exact.Expansions > 0:
			searched++
		}
	}
	if searched == 0 || capped == 0 {
		t.Fatalf("%d searched proofs and %d capped searches; the population no longer exercises both", searched, capped)
	}
}
