package taskset_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/taskgen"
	"repro/internal/taskset"
)

// mkSporadic builds a random heterogeneous sporadic task with utilization
// u: T = vol/u, implicit deadline, no jitter.
func mkSporadic(t testing.TB, seed int64, frac, u float64) taskset.SporadicTask {
	t.Helper()
	gen := taskgen.MustNew(taskgen.Small(10, 60), seed)
	g, _, _, err := gen.HetTask(frac)
	if err != nil {
		t.Fatal(err)
	}
	period := int64(float64(g.Volume()) / u)
	if period < 1 {
		period = 1
	}
	return taskset.SporadicTask{G: g, Period: period, Deadline: period}
}

// evalsFor builds one eval per task over RTABounds. A task whose graph
// cannot be prepared (a nil graph) gets none; the policies reject such a
// set before they read its evals.
func evalsFor(ts taskset.Taskset) []*taskset.Eval {
	evals := make([]*taskset.Eval, len(ts.Tasks))
	for i, t := range ts.Tasks {
		evals[i], _ = taskset.NewEval(taskset.RTABounds(), t.G)
	}
	return evals
}

func TestSporadicTaskValidate(t *testing.T) {
	ok := mkSporadic(t, 1, 0.2, 0.5)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []taskset.SporadicTask{
		{G: nil, Period: 10, Deadline: 10},
		{G: ok.G, Period: 10, Deadline: 0},
		{G: ok.G, Period: 10, Deadline: 11},
		{G: ok.G, Period: 10, Deadline: 10, Jitter: -1},
		{G: ok.G, Period: 10, Deadline: 10, Jitter: 10},
	}
	for i, tc := range cases {
		if err := tc.Validate(); err == nil {
			t.Errorf("case %d: invalid task validated", i)
		}
	}
	if err := (taskset.Taskset{}).Validate(); err == nil {
		t.Error("empty taskset validated")
	}
}

// TestFingerprintPermutationInvariant: any permutation of the same tasks —
// including relabeled member graphs — fingerprints identically, and the
// canonical order is the same taskset.
func TestFingerprintPermutationInvariant(t *testing.T) {
	base := taskset.Taskset{Tasks: []taskset.SporadicTask{
		mkSporadic(t, 1, 0.2, 0.4),
		mkSporadic(t, 2, 0.3, 0.6),
		mkSporadic(t, 3, 0.1, 0.2),
		mkSporadic(t, 4, 0.4, 0.8),
	}}
	fp := base.Fingerprint()

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(len(base.Tasks))
		shuffled := taskset.Taskset{Tasks: make([]taskset.SporadicTask, len(base.Tasks))}
		for i, j := range perm {
			shuffled.Tasks[i] = base.Tasks[j]
		}
		if got := shuffled.Fingerprint(); got != fp {
			t.Fatalf("trial %d: permuted fingerprint %s != %s", trial, got, fp)
		}
		c1, _ := base.CanonicalWithDigests()
		c2, _ := shuffled.CanonicalWithDigests()
		for i := range c1.Tasks {
			a := taskset.Taskset{Tasks: []taskset.SporadicTask{c1.Tasks[i]}}
			b := taskset.Taskset{Tasks: []taskset.SporadicTask{c2.Tasks[i]}}
			if a.Fingerprint() != b.Fingerprint() {
				t.Fatalf("trial %d: canonical order differs at %d", trial, i)
			}
		}
	}

	// Relabeling a member graph (same structure, different insertion order)
	// must not change the fingerprint.
	mk := func(reorder bool) *dag.Graph {
		g := dag.New()
		if reorder {
			c := g.AddNode("c", 3, dag.Host)
			b := g.AddNode("b", 8, dag.Offload)
			a := g.AddNode("a", 2, dag.Host)
			g.MustAddEdge(a, b)
			g.MustAddEdge(b, c)
		} else {
			a := g.AddNode("a", 2, dag.Host)
			b := g.AddNode("b", 8, dag.Offload)
			c := g.AddNode("c", 3, dag.Host)
			g.MustAddEdge(a, b)
			g.MustAddEdge(b, c)
		}
		return g
	}
	ts1 := taskset.Taskset{Tasks: []taskset.SporadicTask{{G: mk(false), Period: 20, Deadline: 20}}}
	ts2 := taskset.Taskset{Tasks: []taskset.SporadicTask{{G: mk(true), Period: 20, Deadline: 20}}}
	if ts1.Fingerprint() != ts2.Fingerprint() {
		t.Fatal("relabeled isomorphic taskset fingerprints differ")
	}

	// Parameter changes must change the fingerprint.
	ts3 := taskset.Taskset{Tasks: []taskset.SporadicTask{{G: mk(false), Period: 21, Deadline: 20}}}
	ts4 := taskset.Taskset{Tasks: []taskset.SporadicTask{{G: mk(false), Period: 20, Deadline: 20, Jitter: 1}}}
	if ts1.Fingerprint() == ts3.Fingerprint() || ts1.Fingerprint() == ts4.Fingerprint() {
		t.Fatal("parameter change did not change the fingerprint")
	}
}

func TestGlobalAdmitsLowUtilization(t *testing.T) {
	ts := taskset.Taskset{Tasks: []taskset.SporadicTask{
		mkSporadic(t, 11, 0.2, 0.1),
		mkSporadic(t, 12, 0.3, 0.1),
		mkSporadic(t, 13, 0.1, 0.1),
	}}
	res, err := taskset.GlobalPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts, Platform: platform.Hetero(8), Evals: evalsFor(ts)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("low-utilization taskset rejected: %s", res.Reason)
	}
	for _, d := range res.Tasks {
		if !d.Admitted || d.R <= 0 {
			t.Fatalf("task %d: admitted=%v R=%v", d.Task, d.Admitted, d.R)
		}
		eff := float64(ts.Tasks[d.Task].EffectiveDeadline())
		if d.R > eff {
			t.Fatalf("task %d admitted with R=%v > D−J=%v", d.Task, d.R, eff)
		}
	}
}

func TestGlobalRejectsOverload(t *testing.T) {
	// Many near-saturating tasks on few cores: the interference iteration
	// must blow past some deadline.
	var ts taskset.Taskset
	for s := int64(0); s < 6; s++ {
		ts.Tasks = append(ts.Tasks, mkSporadic(t, 20+s, 0.2, 0.8))
	}
	res, err := taskset.GlobalPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts, Platform: platform.Hetero(2), Evals: evalsFor(ts)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("global admitted a 4.8-utilization taskset on 2 cores")
	}
	if res.Reason == "" {
		t.Fatal("rejection carries no reason")
	}
}

// TestGlobalMonotoneInScaling: shrinking every period/deadline by a common
// factor (raising utilization) can only flip admit → reject, never the
// other way — the property behind the acceptance-ratio frontier sweep.
func TestGlobalMonotoneInScaling(t *testing.T) {
	base := taskset.Taskset{Tasks: []taskset.SporadicTask{
		mkSporadic(t, 31, 0.2, 1.0),
		mkSporadic(t, 32, 0.3, 1.0),
		mkSporadic(t, 33, 0.1, 1.0),
	}}
	p := platform.Hetero(4)
	prevAdmitted := true
	// Scale from slack (×8) down to overload (×0.5).
	for _, scale := range []float64{8, 4, 2, 1.5, 1, 0.8, 0.6, 0.5} {
		ts := taskset.Taskset{Tasks: make([]taskset.SporadicTask, len(base.Tasks))}
		for i, tk := range base.Tasks {
			tp := int64(float64(tk.Period) * scale)
			if tp < 1 {
				tp = 1
			}
			ts.Tasks[i] = taskset.SporadicTask{G: tk.G, Period: tp, Deadline: tp}
		}
		res, err := taskset.GlobalPolicy().Admit(context.Background(),
			taskset.AdmitInput{Set: ts, Platform: p, Evals: evalsFor(ts)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted && !prevAdmitted {
			t.Fatalf("admission is not monotone: rejected at lower utilization, admitted at scale %v", scale)
		}
		prevAdmitted = res.Admitted
	}
}

// TestGlobalJitterHurts: adding release jitter can only shrink the
// admissible region (smaller effective deadline, wider interference
// windows).
func TestGlobalJitterHurts(t *testing.T) {
	mk := func(jitter int64) taskset.Taskset {
		ts := taskset.Taskset{Tasks: []taskset.SporadicTask{
			mkSporadic(t, 41, 0.2, 0.5),
			mkSporadic(t, 42, 0.3, 0.5),
		}}
		for i := range ts.Tasks {
			ts.Tasks[i].Jitter = jitter
		}
		return ts
	}
	p := platform.Hetero(4)
	prev := true
	for _, j := range []int64{0, 50, 500, 5000} {
		ts := mk(j)
		for i := range ts.Tasks {
			if ts.Tasks[i].Jitter >= ts.Tasks[i].Deadline {
				ts.Tasks[i].Jitter = ts.Tasks[i].Deadline - 1
			}
		}
		res, err := taskset.GlobalPolicy().Admit(context.Background(),
			taskset.AdmitInput{Set: ts, Platform: p, Evals: evalsFor(ts)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted && !prev {
			t.Fatalf("jitter %d admitted after a smaller jitter was rejected", j)
		}
		prev = res.Admitted
	}
}

// TestFederatedPolicyJitter: the federated test uses the effective deadline
// D − J; a light task whose volume fits D but not D − J must be rejected.
func TestFederatedPolicyJitter(t *testing.T) {
	g := dag.New()
	a := g.AddNode("a", 10, dag.Host)
	b := g.AddNode("b", 10, dag.Host)
	g.MustAddEdge(a, b)
	// vol = 20, D = 25: fits without jitter, not with J = 10.
	mk := func(j int64) taskset.Taskset {
		return taskset.Taskset{Tasks: []taskset.SporadicTask{{G: g, Period: 100, Deadline: 25, Jitter: j}}}
	}
	p := platform.Hetero(4)
	for _, tc := range []struct {
		jitter int64
		want   bool
	}{{0, true}, {10, false}} {
		ts := mk(tc.jitter)
		res, err := taskset.FederatedPolicy().Admit(context.Background(),
			taskset.AdmitInput{Set: ts, Platform: p, Evals: evalsFor(ts)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Admitted != tc.want {
			t.Errorf("jitter %d: admitted=%v, want %v (%s)", tc.jitter, res.Admitted, tc.want, res.Reason)
		}
	}
}

// TestFederatedGlobalIncomparable just pins that both policies run on the
// same input and report per-task decisions for every task.
func TestPoliciesReportEveryTask(t *testing.T) {
	ts := taskset.Taskset{Tasks: []taskset.SporadicTask{
		mkSporadic(t, 51, 0.2, 0.4),
		mkSporadic(t, 52, 0.3, 1.5), // heavy
		mkSporadic(t, 53, 0.1, 0.3),
	}}
	in := taskset.AdmitInput{Set: ts, Platform: platform.Hetero(8), Evals: evalsFor(ts)}
	for _, pol := range []taskset.Policy{taskset.FederatedPolicy(), taskset.GlobalPolicy()} {
		res, err := pol.Admit(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if len(res.Tasks) != len(ts.Tasks) {
			t.Fatalf("%s: %d decisions for %d tasks", pol.Name(), len(res.Tasks), len(ts.Tasks))
		}
		seen := map[int]bool{}
		for _, d := range res.Tasks {
			seen[d.Task] = true
		}
		if len(seen) != len(ts.Tasks) {
			t.Fatalf("%s: decisions do not cover every task: %v", pol.Name(), res.Tasks)
		}
	}
}

// TestGlobalDeviceSerializationSound pins the per-class interference split:
// two tasks whose offloads serialize on one device must not both be
// admitted just because the device blocking "divides by m". (τ_1 and τ_2
// each offload ~400 units; the single device finishes τ_2's offload around
// t=800 > D_2=620 in a real schedule, and the old /m division would have
// charged only 400/m ≈ 100 of that.)
func TestGlobalDeviceSerializationSound(t *testing.T) {
	mk := func(deadline int64) taskset.SporadicTask {
		g := dag.New()
		s := g.AddNode("s", 1, dag.Host)
		o := g.AddNode("o", 400, dag.Offload)
		e := g.AddNode("e", 1, dag.Host)
		g.MustAddEdge(s, o)
		g.MustAddEdge(o, e)
		return taskset.SporadicTask{G: g, Period: 10000, Deadline: deadline}
	}
	ts := taskset.Taskset{Tasks: []taskset.SporadicTask{mk(500), mk(620)}}
	res, err := taskset.GlobalPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts, Platform: platform.Hetero(4), Evals: evalsFor(ts)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatalf("admitted two 400-unit offloads serializing on one device: %+v", res.Tasks)
	}
	// The higher-priority task alone is fine; the lower one must carry the
	// device-interference rejection.
	var lower taskset.TaskDecision
	for _, d := range res.Tasks {
		if ts.Tasks[d.Task].Deadline == 620 {
			lower = d
		}
	}
	if lower.Admitted {
		t.Fatal("lower-priority contender admitted despite device serialization")
	}
	// With a device per task the same system must be schedulable.
	p2 := platform.New(
		platform.ResourceClass{Name: "host", Count: 4},
		platform.ResourceClass{Name: "dev", Count: 2},
	)
	res2, err := taskset.GlobalPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts, Platform: p2, Evals: evalsFor(ts)})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Admitted {
		t.Fatalf("rejected with one device per contender: %s", res2.Reason)
	}
}

// TestFederatedLightDensityPacking pins the density-based shared-partition
// test: two light tasks of density 1 cannot share one core (a bare
// utilization sum would admit them; both provably miss at runtime).
func TestFederatedLightDensityPacking(t *testing.T) {
	mk := func() taskset.SporadicTask {
		g := dag.New()
		g.AddNode("n", 50, dag.Host)
		return taskset.SporadicTask{G: g, Period: 100, Deadline: 50}
	}
	ts := taskset.Taskset{Tasks: []taskset.SporadicTask{mk(), mk()}}
	res, err := taskset.FederatedPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts, Platform: platform.Homogeneous(1), Evals: evalsFor(ts)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("two density-1.0 light tasks admitted onto one shared core")
	}
	// On two cores, one task per core fits.
	res2, err := taskset.FederatedPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts, Platform: platform.Homogeneous(2), Evals: evalsFor(ts)})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Admitted {
		t.Fatalf("rejected one density-1.0 task per core: %s", res2.Reason)
	}
	// Three 0.6-density tasks on two shared cores cannot be partitioned
	// (0.6+0.6 > 1 per core), even though Σu = 0.9 ≤ 2.
	mk06 := func() taskset.SporadicTask {
		g := dag.New()
		g.AddNode("n", 30, dag.Host)
		return taskset.SporadicTask{G: g, Period: 100, Deadline: 50}
	}
	ts3 := taskset.Taskset{Tasks: []taskset.SporadicTask{mk06(), mk06(), mk06()}}
	res3, err := taskset.FederatedPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts3, Platform: platform.Homogeneous(2), Evals: evalsFor(ts3)})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Admitted {
		t.Fatal("three 0.6-density tasks admitted onto two shared cores")
	}

	// The packing runs even when the verdict is already negative (an
	// infeasible heavy task), so per-task light verdicts stay truthful:
	// the core only fits one δ=1 task, the other must not read admitted.
	heavy := func() taskset.SporadicTask {
		g := dag.New()
		a := g.AddNode("a", 60, dag.Host)
		b := g.AddNode("b", 60, dag.Host)
		g.MustAddEdge(a, b)
		return taskset.SporadicTask{G: g, Period: 100, Deadline: 100} // len 120 > D
	}
	ts4 := taskset.Taskset{Tasks: []taskset.SporadicTask{heavy(), mk(), mk()}}
	res4, err := taskset.FederatedPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts4, Platform: platform.Homogeneous(1), Evals: evalsFor(ts4)})
	if err != nil {
		t.Fatal(err)
	}
	if res4.Admitted {
		t.Fatal("admitted an infeasible heavy task")
	}
	lightAdmitted := 0
	for _, d := range res4.Tasks[1:] {
		if d.Admitted {
			lightAdmitted++
		}
	}
	if lightAdmitted != 1 {
		t.Fatalf("%d light tasks report admitted on one shared core, want 1: %+v", lightAdmitted, res4.Tasks)
	}
}

// TestPoliciesRejectNilGraph: a task without a graph is an admission error
// naming the task, from every policy, not a nil dereference.
func TestPoliciesRejectNilGraph(t *testing.T) {
	ts := taskset.Taskset{Tasks: []taskset.SporadicTask{
		mkSporadic(t, 1, 0.2, 0.3),
		{G: nil, Period: 10, Deadline: 10},
	}}
	for _, pol := range []taskset.Policy{taskset.FederatedPolicy(), taskset.GlobalPolicy()} {
		t.Run(pol.Name(), func(t *testing.T) {
			in := taskset.AdmitInput{Set: ts, Platform: platform.Hetero(4), Evals: evalsFor(ts)}
			res, err := pol.Admit(context.Background(), in)
			if err == nil || !strings.Contains(err.Error(), "task 1") {
				t.Fatalf("Admit = %+v, %v; want an error naming task 1", res, err)
			}
		})
	}
}
