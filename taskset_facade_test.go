package hetrta

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// admitTestAnalyzer returns the analyzer + taskset analyzer used across the
// facade tests: the paper platform, all safe bounds.
func admitTestAnalyzer(t testing.TB, m int, opts ...TasksetOption) *TasksetAnalyzer {
	t.Helper()
	an, err := NewAnalyzer(
		WithPlatform(HeteroPlatform(m)),
		WithBounds(RhomBound(), RhetBound(), TypedRhomBound()),
	)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := NewTasksetAnalyzer(an, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ta
}

// mkAdmitTask builds a deterministic sporadic task from a seeded generator
// at a target utilization (implicit deadline, no jitter).
func mkAdmitTask(t testing.TB, seed int64, frac, u float64) SporadicTask {
	t.Helper()
	gen, err := NewGenerator(SmallTasks(8, 40), seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if frac > 0 {
		SetOffload(g, g.NumNodes()/2, frac)
	}
	period := int64(float64(g.Volume()) / u)
	if period < 1 {
		period = 1
	}
	return SporadicTask{G: g, Period: period, Deadline: period}
}

func TestTasksetAnalyzerAdmit(t *testing.T) {
	ta := admitTestAnalyzer(t, 8)
	ts := Taskset{Tasks: []SporadicTask{
		mkAdmitTask(t, 1, 0.3, 0.4),
		mkAdmitTask(t, 2, 0, 0.3),
		mkAdmitTask(t, 3, 0.2, 0.2),
	}}
	rep, err := ta.Admit(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Admitted {
		t.Fatalf("low-utilization taskset rejected: %+v", rep.Policies)
	}
	if rep.Taskset.Tasks != 3 || rep.Taskset.Offloading != 2 {
		t.Fatalf("summary wrong: %+v", rep.Taskset)
	}
	if len(rep.Policies) != 2 {
		t.Fatalf("want 2 policy verdicts, got %d", len(rep.Policies))
	}
	for i, name := range []string{"federated", "global"} {
		pr := rep.Policies[i]
		if pr.Policy != name {
			t.Fatalf("verdict %d is %q, want %q", i, pr.Policy, name)
		}
		if len(pr.Tasks) != 3 {
			t.Fatalf("%s: %d decisions", name, len(pr.Tasks))
		}
	}
	if rep.Fingerprint == "" {
		t.Fatal("report lacks a fingerprint")
	}

	// Reject: a deadline below the critical path defeats every policy.
	bad := Taskset{Tasks: []SporadicTask{func() SporadicTask {
		g := NewGraph()
		a := g.AddNode("a", 50, Host)
		b := g.AddNode("b", 50, Host)
		g.MustAddEdge(a, b)
		return SporadicTask{G: g, Period: 60, Deadline: 60}
	}()}}
	rep2, err := ta.Admit(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Admitted {
		t.Fatal("admitted a task with deadline below its critical path")
	}
	for _, pr := range rep2.Policies {
		if pr.Admitted || pr.Reason == "" {
			t.Fatalf("%s: admitted=%v reason=%q", pr.Policy, pr.Admitted, pr.Reason)
		}
	}

	// Invalid tasksets are errors, not reports.
	if _, err := ta.Admit(context.Background(), Taskset{}); err == nil {
		t.Fatal("empty taskset admitted without error")
	}
}

// TestAdmitReportPermutationInvariant: permuting the taskset (and
// relabeling member graphs by rebuilding them in a different node order)
// yields byte-identical report JSON — the property the admission cache's
// byte-identity rests on.
func TestAdmitReportPermutationInvariant(t *testing.T) {
	ta := admitTestAnalyzer(t, 4)
	mkSet := func(perm []int) Taskset {
		tasks := []SporadicTask{
			mkAdmitTask(t, 11, 0.3, 0.5),
			mkAdmitTask(t, 12, 0, 0.2),
			mkAdmitTask(t, 13, 0.1, 0.8),
			mkAdmitTask(t, 14, 0.4, 1.4),
		}
		out := Taskset{Tasks: make([]SporadicTask, len(tasks))}
		for i, j := range perm {
			out.Tasks[i] = tasks[j]
		}
		return out
	}
	base, err := ta.Admit(context.Background(), mkSet([]int{0, 1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		rep, err := ta.Admit(context.Background(), mkSet(rng.Perm(4)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, baseJSON) {
			t.Fatalf("trial %d: permuted taskset report differs:\n%s\n%s", trial, got, baseJSON)
		}
	}
}

func TestTasksetAnalyzerSignature(t *testing.T) {
	both := admitTestAnalyzer(t, 4)
	fedOnly := admitTestAnalyzer(t, 4, WithTasksetPolicies(FederatedPolicy()))
	if both.Signature() == fedOnly.Signature() {
		t.Fatal("policy set does not show up in the signature")
	}
	if !strings.Contains(both.Signature(), "tspolicies=federated,global") {
		t.Fatalf("signature %q lacks the policy list", both.Signature())
	}
	otherPlat := admitTestAnalyzer(t, 8)
	if both.Signature() == otherPlat.Signature() {
		t.Fatal("platform does not show up in the signature")
	}
	if _, err := NewTasksetAnalyzer(nil); err == nil {
		t.Fatal("nil analyzer accepted")
	}
	an, _ := NewAnalyzer()
	if _, err := NewTasksetAnalyzer(an, WithTasksetPolicies(FederatedPolicy(), FederatedPolicy())); err == nil {
		t.Fatal("duplicate policies accepted")
	}
}

// TestAdmitMixedOffloadClassesRejectsNotErrors: a model-valid task whose
// offload classes are only partially backed by machines (class 1 has a
// device, class 2 does not) has no safe bound — Rhom is out (device
// serialization), Rhet is out (multi-offload), TypedRhom is out (empty
// class). That must surface as a per-task REJECTION in the report, not as
// an Admit error (422 from the daemon / a poisoned batch slot).
func TestAdmitMixedOffloadClassesRejectsNotErrors(t *testing.T) {
	g := NewGraph()
	src := g.AddNode("src", 2, Host)
	gpu := g.AddNode("gpu", 8, Offload) // class 1: machine exists
	fpga := g.AddNode("fpga", 6, Offload)
	sink := g.AddNode("sink", 2, Host)
	g.SetClass(fpga, 2) // class 2: no machine on Hetero(4)
	g.MustAddEdge(src, gpu)
	g.MustAddEdge(src, fpga)
	g.MustAddEdge(gpu, sink)
	g.MustAddEdge(fpga, sink)

	// Heavy (U = 18/11) with a deadline below Rhom's reach (len = 12 > 11),
	// so neither the homogeneous fallback nor any het analysis certifies it.
	// (A light variant of the same graph is admitted under the federated
	// shared-partition reading — sequential host execution — so the
	// no-safe-bound path needs a heavy task.)
	ta := admitTestAnalyzer(t, 4)
	rep, err := ta.Admit(context.Background(), Taskset{Tasks: []SporadicTask{
		{G: g, Period: 11, Deadline: 11},
	}})
	if err != nil {
		t.Fatalf("Admit errored instead of rejecting: %v", err)
	}
	if rep.Admitted {
		t.Fatal("admitted a task with no safe bound")
	}
	for _, pr := range rep.Policies {
		if pr.Admitted {
			t.Fatalf("%s admitted a task with no safe bound", pr.Policy)
		}
		if pr.Reason == "" {
			t.Fatalf("%s rejected without a reason", pr.Policy)
		}
	}
	checkNoSafeReasons(t, "fresh", rep)

	// The same rejection served from a TaskEvalHandle's memo: the second
	// admission through one cached handle replays the memoized no-safe
	// verdict and must name it in exactly the same bytes.
	h, err := ta.PrepareTaskEval(g)
	if err != nil {
		t.Fatal(err)
	}
	cached := func(context.Context, SporadicTask, TaskDigest) (*TaskEvalHandle, error) { return h, nil }
	ts := Taskset{Tasks: []SporadicTask{{G: g, Period: 11, Deadline: 11}}}
	for _, label := range []string{"handle first", "handle memo"} {
		rep, err := ta.AdmitPrepared(context.Background(), ts, nil, cached)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkNoSafeReasons(t, label, rep)
	}
}

// checkNoSafeReasons pins the served global-policy reasons of the
// mixed-offload-class rejection byte for byte.
func checkNoSafeReasons(t *testing.T, label string, rep *AdmitReport) {
	t.Helper()
	const want = "hetrta: no safe response-time bound applies on m=4+1dev"
	for _, global := range rep.Policies {
		if global.Policy != "global" {
			continue
		}
		if global.Reason != "task 0: "+want {
			t.Errorf("%s: global reason = %q, want %q", label, global.Reason, "task 0: "+want)
		}
		if len(global.Tasks) != 1 || global.Tasks[0].Reason != want {
			t.Errorf("%s: global task decisions = %+v, want one with reason %q", label, global.Tasks, want)
		}
		return
	}
	t.Fatalf("%s: no global verdict", label)
}
