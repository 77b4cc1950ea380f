package hetrta_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	hetrta "repro"
)

func TestAnalyzerFig1Report(t *testing.T) {
	g := buildFig1(t)
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.NaiveBound(), hetrta.TypedRhomBound()),
		hetrta.WithPolicy(hetrta.BreadthFirst),
		hetrta.WithExactBudget(0),
		hetrta.WithValidation(hetrta.PaperModel()),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Graph.Volume != 18 || rep.Graph.CriticalPath != 8 {
		t.Errorf("graph summary vol=%d len=%d, want 18/8", rep.Graph.Volume, rep.Graph.CriticalPath)
	}
	if rep.Graph.Offload == nil || rep.Graph.Offload.COff != 4 {
		t.Errorf("offload summary %+v, want COff=4", rep.Graph.Offload)
	}

	rhom, ok := rep.BoundValue("rhom")
	if !ok || math.Abs(rhom-13) > 1e-9 {
		t.Errorf("rhom = %v (ok=%v), want 13", rhom, ok)
	}
	rhet, ok := rep.BoundValue("rhet")
	if !ok || math.Abs(rhet-12) > 1e-9 {
		t.Errorf("rhet = %v (ok=%v), want 12", rhet, ok)
	}
	if b, _ := rep.Bound("rhet"); b.Scenario != "scenario 1" {
		t.Errorf("rhet scenario = %q, want scenario 1", b.Scenario)
	}
	naive, _ := rep.Bound("naive")
	if !naive.Unsafe || math.Abs(naive.Value-11) > 1e-9 {
		t.Errorf("naive = %+v, want Unsafe value 11", naive)
	}
	if _, ok := rep.BoundValue("typed-rhom"); !ok {
		t.Error("typed-rhom missing")
	}

	if rep.Transform == nil || rep.TransformResult == nil {
		t.Fatal("transformation missing from report")
	}
	if rep.Transform.LenPrime != 10 {
		t.Errorf("len(G') = %d, want 10", rep.Transform.LenPrime)
	}
	if err := hetrta.CheckTransform(rep.TransformResult); err != nil {
		t.Errorf("transform check: %v", err)
	}

	if rep.Simulation == nil || rep.Simulation.Makespan != 12 {
		t.Errorf("simulation = %+v, want makespan 12", rep.Simulation)
	}
	if rep.Exact == nil || rep.Exact.Makespan != 9 || rep.Exact.Status != "optimal" {
		t.Errorf("exact = %+v, want optimal 9", rep.Exact)
	}

	// Schedulability helper: Rhet certifies D=12, Rhom does not; the unsafe
	// naive bound certifies nothing.
	if s, ok := rep.Schedulable("rhet", 12); !ok || !s {
		t.Errorf("Schedulable(rhet, 12) = %v/%v", s, ok)
	}
	if s, ok := rep.Schedulable("rhom", 12); !ok || s {
		t.Errorf("Schedulable(rhom, 12) = %v/%v", s, ok)
	}
	if _, ok := rep.Schedulable("naive", 12); ok {
		t.Error("unsafe bound certified a deadline")
	}

	// The report is JSON-serializable and round-trips its headline numbers.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back hetrta.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.BoundValue("rhet"); !ok || math.Abs(v-12) > 1e-9 {
		t.Errorf("round-tripped rhet = %v", v)
	}
	if back.Exact == nil || back.Exact.Makespan != 9 {
		t.Errorf("round-tripped exact = %+v", back.Exact)
	}
}

func TestAnalyzerDoesNotMutateInput(t *testing.T) {
	// A graph with a redundant edge: the Analyzer must reduce its own clone.
	g := hetrta.NewGraph()
	a := g.AddNode("a", 1, hetrta.Host)
	b := g.AddNode("b", 2, hetrta.Host)
	c := g.AddNode("c", 3, hetrta.Offload)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)
	g.MustAddEdge(a, c) // redundant
	edgesBefore := g.NumEdges()

	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(hetrta.HeteroPlatform(2)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != edgesBefore {
		t.Errorf("input graph mutated: %d edges, had %d", g.NumEdges(), edgesBefore)
	}
	if rep.Graph.ReducedEdges != 1 || rep.Graph.Edges != edgesBefore-1 {
		t.Errorf("reduction not reported: %+v", rep.Graph)
	}
}

func TestAnalyzerHomogeneousGraphSkipsRhet(t *testing.T) {
	g := hetrta.NewGraph()
	a := g.AddNode("a", 3, hetrta.Host)
	b := g.AddNode("b", 5, hetrta.Host)
	g.MustAddEdge(a, b)

	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(hetrta.HeteroPlatform(2)))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.BoundValue("rhom"); !ok {
		t.Error("rhom missing on homogeneous graph")
	}
	if rhet, _ := rep.Bound("rhet"); rhet.Skipped == "" {
		t.Errorf("rhet not skipped on homogeneous graph: %+v", rhet)
	}
	if rep.Transform != nil {
		t.Error("transformation reported for homogeneous graph")
	}
}

func TestParallelismAccessor(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		an, err := hetrta.NewAnalyzer(hetrta.WithParallelism(n))
		if err != nil {
			t.Fatal(err)
		}
		if got := an.Parallelism(); got != n {
			t.Fatalf("WithParallelism(%d): Parallelism() = %d", n, got)
		}
	}
	an, err := hetrta.NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if got := an.Parallelism(); got != 0 {
		t.Fatalf("default Parallelism() = %d, want 0 (one worker per CPU)", got)
	}
}

func TestAnalyzerOptionValidation(t *testing.T) {
	bad := [][]hetrta.Option{
		{hetrta.WithPlatform(hetrta.NewPlatform(hetrta.ResourceClass{Name: "host", Count: 0}, hetrta.ResourceClass{Name: "dev", Count: 1}))},
		{hetrta.WithDevices(-1)},
		{hetrta.WithParallelism(-2)},
		{hetrta.WithExactBudget(-5)},
		{hetrta.WithPolicy(nil)},
		{hetrta.WithBounds()},
		{hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhomBound())},
	}
	for i, opts := range bad {
		if _, err := hetrta.NewAnalyzer(opts...); err == nil {
			t.Errorf("bad option set %d accepted", i)
		}
	}
	// WithDevices overrides the platform regardless of option order.
	an, err := hetrta.NewAnalyzer(
		hetrta.WithDevices(3),
		hetrta.WithPlatform(hetrta.HeteroPlatform(8)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if p := an.Platform(); p.Cores() != 8 || p.Devices() != 3 {
		t.Errorf("platform = %v, want m=8+3dev", p)
	}
}

// countingBound demonstrates the pluggable Bound surface.
type countingBound struct{ calls *int }

func (countingBound) Name() string { return "count" }
func (b countingBound) Compute(_ context.Context, in hetrta.BoundInput) (hetrta.BoundResult, error) {
	*b.calls++
	return hetrta.BoundResult{Name: "count", Value: float64(in.Graph.Volume())}, nil
}

func TestAnalyzerCustomBound(t *testing.T) {
	calls := 0
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithBounds(countingBound{&calls}),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), buildFig1(t))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("custom bound called %d times", calls)
	}
	if v, ok := rep.BoundValue("count"); !ok || v != 18 {
		t.Errorf("custom bound value %v (ok=%v), want 18", v, ok)
	}
}

func TestAnalyzeBatchDeterministicOrder(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(8, 30), 11)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*hetrta.Graph
	for i := 0; i < 60; i++ {
		g, _, _, err := gen.HetTask(0.05 + 0.5*float64(i)/60)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}

	run := func(parallelism int) []byte {
		an, err := hetrta.NewAnalyzer(
			hetrta.WithPlatform(hetrta.HeteroPlatform(4)),
			hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()),
			hetrta.WithPolicy(hetrta.BreadthFirst),
			hetrta.WithParallelism(parallelism),
		)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := an.AnalyzeBatch(context.Background(), graphs)
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != len(graphs) {
			t.Fatalf("got %d reports for %d graphs", len(reports), len(graphs))
		}
		data, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	serial := run(1)
	for _, p := range []int{2, 8} {
		if got := run(p); string(got) != string(serial) {
			t.Fatalf("parallelism %d produced different batch output", p)
		}
	}
}

func TestAnalyzeBatchPerItemErrors(t *testing.T) {
	good := buildFig1(t)
	cyclic := hetrta.NewGraph()
	a := cyclic.AddNode("a", 1, hetrta.Host)
	b := cyclic.AddNode("b", 1, hetrta.Host)
	cyclic.MustAddEdge(a, b)
	cyclic.MustAddEdge(b, a)

	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(hetrta.HeteroPlatform(2)))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := an.AnalyzeBatch(context.Background(), []*hetrta.Graph{good, cyclic, good})
	if err != nil {
		t.Fatalf("batch failed outright: %v", err)
	}
	if reports[0].Err != "" || reports[2].Err != "" {
		t.Errorf("good graphs got errors: %q / %q", reports[0].Err, reports[2].Err)
	}
	if reports[1].Err == "" {
		t.Error("cyclic graph produced no error")
	}
	if v, ok := reports[0].BoundValue("rhet"); !ok || math.Abs(v-12) > 1e-9 {
		t.Errorf("good report rhet = %v", v)
	}
}

func TestAnalyzeCancelledMidExact(t *testing.T) {
	// A large instance whose exact search would run far past the deadline:
	// cancelling the context must abort Analyze promptly with the context's
	// error, per the Analyzer contract.
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(40, 64), 3)
	if err != nil {
		t.Fatal(err)
	}
	g, _, _, err := gen.HetTask(0.15)
	if err != nil {
		t.Fatal(err)
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithExactBudget(1<<40),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := an.Analyze(ctx, g)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled (or nil if it finished first)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Analyze did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("not prompt: %v", elapsed)
	}
}

func TestAnalyzeBatchCancellation(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(20, 40), 5)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*hetrta.Graph
	for i := 0; i < 200; i++ {
		g, _, _, err := gen.HetTask(0.2)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithParallelism(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := an.AnalyzeBatch(ctx, graphs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(reports) != len(graphs) {
		t.Fatalf("got %d report slots, want %d", len(reports), len(graphs))
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("report %d is nil", i)
		}
	}
}

// TestAnalyzerMultiOffloadReport: a graph with several offload nodes gets a
// full report — per-offload transform summaries, an explicit Rhet skip
// reason, a typed bound, and a simulation of the fully transformed graph —
// so batch consumers can distinguish "homogeneous" from "multi-offload".
func TestAnalyzerMultiOffloadReport(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(12, 40), 99)
	if err != nil {
		t.Fatal(err)
	}
	g, offs, _, err := gen.MultiHetTask(3, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.NewPlatform(
			hetrta.ResourceClass{Name: "host", Count: 4},
			hetrta.ResourceClass{Name: "gpu", Count: 1},
			hetrta.ResourceClass{Name: "fpga", Count: 1},
		)),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()),
		hetrta.WithPolicy(hetrta.BreadthFirst),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph.Offloads != 3 || rep.Graph.Offload != nil {
		t.Errorf("graph summary: offloads=%d offload=%+v", rep.Graph.Offloads, rep.Graph.Offload)
	}
	if len(rep.Transforms) != 3 || rep.MultiTransformResult == nil {
		t.Fatalf("per-offload transforms missing: %d summaries", len(rep.Transforms))
	}
	if rep.Transform != nil || rep.TransformResult != nil {
		t.Error("single-offload transform populated on a multi-offload task")
	}
	summarized := map[int]bool{}
	for _, st := range rep.Transforms {
		summarized[st.Offload] = true
		if st.COff != g.WCET(st.Offload) || st.Class != g.Class(st.Offload) {
			t.Errorf("step %+v does not match node %d", st, st.Offload)
		}
		if gate, ok := rep.MultiTransformResult.Syncs[st.Offload]; !ok || gate != st.Gate {
			t.Errorf("step gate %d disagrees with Syncs[%d]=%d", st.Gate, st.Offload, gate)
		}
	}
	for _, v := range offs {
		if !summarized[v] {
			t.Errorf("offload %d has no transform summary", v)
		}
	}
	if rhet, _ := rep.Bound("rhet"); rhet.Skipped == "" {
		t.Errorf("rhet not skipped with a reason on a multi-offload task: %+v", rhet)
	}
	if _, ok := rep.BoundValue("typed-rhom"); !ok {
		t.Error("typed-rhom missing on a multi-offload task")
	}
	if rep.Simulation == nil || rep.Simulation.MakespanTransformed == 0 {
		t.Errorf("transformed simulation missing: %+v", rep.Simulation)
	}
	if err := hetrta.CheckTransformAll(rep.MultiTransformResult.Original, rep.MultiTransformResult); err != nil {
		t.Errorf("transform-all check: %v", err)
	}
	// JSON round trip keeps the per-offload summaries.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back hetrta.Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Transforms) != 3 {
		t.Errorf("round-tripped %d transform summaries", len(back.Transforms))
	}
}

// TestAnalyzerSkipsBoundsOnMissingClass: a node whose device class has no
// machine must skip Rhet and TypedRhom with a reason naming the class, not
// silently produce a wrong number.
func TestAnalyzerSkipsBoundsOnMissingClass(t *testing.T) {
	g := hetrta.NewGraph()
	a := g.AddNode("a", 2, hetrta.Host)
	b := g.AddNode("b", 5, hetrta.Offload)
	g.SetClass(b, 2) // class the platform below does not have
	c := g.AddNode("c", 3, hetrta.Host)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)

	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := an.Analyze(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.BoundValue("rhom"); !ok {
		t.Error("rhom must still apply (it ignores devices)")
	}
	for _, name := range []string{"rhet", "typed-rhom"} {
		bd, found := rep.Bound(name)
		if !found || bd.Skipped == "" {
			t.Errorf("%s not skipped: %+v", name, bd)
			continue
		}
		if !strings.Contains(bd.Skipped, "class 2") {
			t.Errorf("%s skip reason %q does not name the missing class", name, bd.Skipped)
		}
	}
}

// TestAnalyzeBatchErrorSlotsDeterministic: invalid graphs mid-batch yield
// per-item Report.Err, and the full batch output — including the error
// slots — is identical at parallelism 1 and N.
func TestAnalyzeBatchErrorSlotsDeterministic(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(8, 30), 23)
	if err != nil {
		t.Fatal(err)
	}
	cyclic := hetrta.NewGraph()
	ca := cyclic.AddNode("a", 1, hetrta.Host)
	cb := cyclic.AddNode("b", 1, hetrta.Host)
	cyclic.MustAddEdge(ca, cb)
	cyclic.MustAddEdge(cb, ca)

	var graphs []*hetrta.Graph
	for i := 0; i < 24; i++ {
		if i%5 == 2 {
			graphs = append(graphs, cyclic)
			continue
		}
		if i%7 == 3 {
			graphs = append(graphs, nil)
			continue
		}
		g, _, _, err := gen.HetTask(0.2)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}

	run := func(parallelism int) []byte {
		an, err := hetrta.NewAnalyzer(
			hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
			hetrta.WithParallelism(parallelism),
		)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := an.AnalyzeBatch(context.Background(), graphs)
		if err != nil {
			t.Fatalf("batch failed outright: %v", err)
		}
		for i, rep := range reports {
			wantErr := i%5 == 2 || i%7 == 3
			if (rep.Err != "") != wantErr {
				t.Fatalf("parallelism %d: slot %d Err=%q, want error=%v", parallelism, i, rep.Err, wantErr)
			}
			if wantErr && len(rep.Bounds) != 0 {
				t.Fatalf("parallelism %d: failed slot %d carries bounds", parallelism, i)
			}
		}
		data, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := run(1)
	for _, p := range []int{3, 8} {
		if got := run(p); string(got) != string(serial) {
			t.Fatalf("parallelism %d produced different batch output (error slots must be deterministic)", p)
		}
	}
}

// TestAnalyzeBatchCancellationFillsSlots: cancelling the batch fills every
// undispatched slot with the cancellation error, so consumers always get
// len(gs) well-formed reports.
func TestAnalyzeBatchCancellationFillsSlots(t *testing.T) {
	gen, err := hetrta.NewGenerator(hetrta.SmallTasks(20, 40), 5)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*hetrta.Graph
	for i := 0; i < 100; i++ {
		g, _, _, err := gen.HetTask(0.2)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(hetrta.HeteroPlatform(2)),
		hetrta.WithParallelism(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before dispatch: no slot may complete
	reports, err := an.AnalyzeBatch(ctx, graphs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(reports) != len(graphs) {
		t.Fatalf("got %d report slots, want %d", len(reports), len(graphs))
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("report %d is nil", i)
		}
		if r.Err == "" {
			t.Fatalf("report %d lacks the cancellation error", i)
		}
		if !strings.Contains(r.Err, context.Canceled.Error()) {
			t.Fatalf("report %d Err = %q, want it to record the cancellation", i, r.Err)
		}
	}
}
