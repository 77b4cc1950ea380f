package taskset_test

import (
	"context"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/rta"
	"repro/internal/taskgen"
	"repro/internal/taskset"
	"repro/internal/transform"
)

// mkTask builds a random heterogeneous task with the given deadline slack:
// deadline = slack × vol.
func mkTask(t testing.TB, seed int64, frac, slack float64) taskset.SporadicTask {
	t.Helper()
	gen := taskgen.MustNew(taskgen.Small(10, 60), seed)
	g, _, _, err := gen.HetTask(frac)
	if err != nil {
		t.Fatal(err)
	}
	d := int64(slack * float64(g.Volume()))
	if d < 1 {
		d = 1
	}
	return taskset.SporadicTask{G: g, Period: d, Deadline: d}
}

// federatedAdmit runs the federated test on tasks, in the given order, with
// the default rta-backed evals.
func federatedAdmit(t *testing.T, p platform.Platform, tasks ...taskset.SporadicTask) *taskset.PolicyResult {
	t.Helper()
	ts := taskset.Taskset{Tasks: tasks}
	res, err := taskset.FederatedPolicy().Admit(context.Background(),
		taskset.AdmitInput{Set: ts, Platform: p, Evals: evalsFor(ts)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustAdmit is federatedAdmit for a taskset the test expects admitted.
func mustAdmit(t *testing.T, p platform.Platform, tasks ...taskset.SporadicTask) *taskset.PolicyResult {
	t.Helper()
	res := federatedAdmit(t, p, tasks...)
	if !res.Admitted {
		t.Fatalf("not admitted: %s", res.Reason)
	}
	return res
}

func TestAllocateSingleHeavyTask(t *testing.T) {
	tk := mkTask(t, 1, 0.3, 0.5) // deadline = vol/2 → heavy (U = 2)
	g := mustAdmit(t, platform.Hetero(16), tk).Tasks[0]
	if !g.Heavy {
		t.Fatal("task with U=2 not marked heavy")
	}
	if g.Cores < 2 {
		t.Fatalf("granted %d cores; U=2 needs at least 2", g.Cores)
	}
	if g.R > float64(tk.Deadline) {
		t.Fatalf("admitted with R=%v > D=%d", g.R, tk.Deadline)
	}
	// Minimality: one fewer core must not be schedulable by the same path.
	if g.Cores > 1 {
		m := g.Cores - 1
		e, err := taskset.NewEval(taskset.RTABounds(), tk.G)
		if err != nil {
			t.Fatal(err)
		}
		rHet, err := e.Bound(context.Background(), platform.Hetero(m))
		if err != nil {
			t.Fatal(err)
		}
		rHom, err := e.Bound(context.Background(), platform.Homogeneous(m))
		if err != nil {
			t.Fatal(err)
		}
		if rHet <= float64(tk.Deadline) || rHom <= float64(tk.Deadline) {
			t.Fatalf("grant of %d cores not minimal: %d suffices", g.Cores, m)
		}
	}
}

func TestAllocateLightTasksShareCores(t *testing.T) {
	// Three light tasks (deadline = 4×vol → U = 0.25) on 2 cores.
	var tasks []taskset.SporadicTask
	for s := int64(0); s < 3; s++ {
		tasks = append(tasks, mkTask(t, 10+s, 0.2, 4))
	}
	res := mustAdmit(t, platform.Hetero(2), tasks...)
	if res.DedicatedCores != 0 {
		t.Fatalf("light-only system granted %d dedicated cores", res.DedicatedCores)
	}
	if res.SharedCores != 2 {
		t.Fatalf("shared cores = %d, want 2", res.SharedCores)
	}
}

func TestAllocateRejectsOverload(t *testing.T) {
	// A heavy task with an impossible deadline: below the critical path.
	g := dag.New()
	a := g.AddNode("", 50, dag.Host)
	b := g.AddNode("", 50, dag.Host)
	g.MustAddEdge(a, b)
	tk := taskset.SporadicTask{G: g, Period: 60, Deadline: 60} // len = 100 > 60
	if federatedAdmit(t, platform.Hetero(64), tk).Admitted {
		t.Fatal("admitted task with deadline below critical path")
	}
}

func TestAllocateRejectsTooFewCores(t *testing.T) {
	// Two heavy tasks each needing several cores on a tiny platform.
	t1 := mkTask(t, 21, 0.1, 0.4)
	t2 := mkTask(t, 22, 0.1, 0.4)
	if federatedAdmit(t, platform.Hetero(2), t1, t2).Admitted {
		t.Fatal("admitted two heavy tasks on 2 cores")
	}
}

func TestDeviceBudgetRespected(t *testing.T) {
	// Two heavy offloading tasks, one device: at most one grant may use it.
	t1 := mkTask(t, 31, 0.4, 0.6)
	t2 := mkTask(t, 32, 0.4, 0.6)
	used := 0
	for _, g := range mustAdmit(t, platform.Hetero(64), t1, t2).Tasks {
		if g.UsesDevice {
			used++
		}
	}
	if used > 1 {
		t.Fatalf("%d grants use the single device", used)
	}
	// With two devices both may use one.
	used2 := 0
	twoDev := platform.New(platform.ResourceClass{Name: "host", Count: 64}, platform.ResourceClass{Name: "dev", Count: 2})
	for _, g := range mustAdmit(t, twoDev, t1, t2).Tasks {
		if g.UsesDevice {
			used2++
		}
	}
	if used2 < used {
		t.Fatalf("adding a device reduced device use (%d -> %d)", used, used2)
	}
}

func TestHetAnalysisSavesCores(t *testing.T) {
	// A task whose offloaded share is large: the heterogeneous analysis
	// should need no more dedicated cores than the homogeneous one.
	tk := mkTask(t, 41, 0.5, 0.7)
	withDev := mustAdmit(t, platform.Hetero(64), tk).Tasks[0]
	withoutDev := mustAdmit(t, platform.Homogeneous(64), tk).Tasks[0]
	if withDev.Cores > withoutDev.Cores {
		t.Fatalf("device-aware grant %d cores > homogeneous grant %d cores",
			withDev.Cores, withoutDev.Cores)
	}
}

// TestRhetMonotoneInCores supports the minimal-grant scan: both bounds must
// be non-increasing in m (Rhet is piecewise across scenarios; the pieces
// agree at the switch points — see Theorem 1's remark).
func TestRhetMonotoneInCores(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Small(10, 60), 5)
	for i := 0; i < 40; i++ {
		frac := 0.02 + 0.5*float64(i)/40
		g, _, _, err := gen.HetTask(frac)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := transform.Transform(g)
		if err != nil {
			t.Fatal(err)
		}
		prevHom, prevHet := -1.0, -1.0
		for m := 1; m <= 32; m *= 2 {
			rhom := rta.Rhom(g, platform.Hetero(m))
			het, err := rta.Rhet(tr, platform.Hetero(m))
			if err != nil {
				t.Fatal(err)
			}
			if prevHom >= 0 && rhom > prevHom+1e-9 {
				t.Fatalf("iter %d: Rhom increased %v -> %v at m=%d", i, prevHom, rhom, m)
			}
			if prevHet >= 0 && het.R > prevHet+1e-9 {
				t.Fatalf("iter %d: Rhet increased %v -> %v at m=%d", i, prevHet, het.R, m)
			}
			prevHom, prevHet = rhom, het.R
		}
	}
}

// TestDeviceBudgetIsPerClass: two heavy tasks offloading to the same GPU
// class must not both be admitted via Rhet just because an idle FPGA
// exists, and a task offloading to a later class gets that class's device.
func TestDeviceBudgetIsPerClass(t *testing.T) {
	mkTask := func(class int) taskset.SporadicTask {
		g := dag.New()
		s := g.AddNode("s", 10, dag.Host)
		o := g.AddNode("o", 40, dag.Offload)
		g.SetClass(o, class)
		h := g.AddNode("h", 40, dag.Host)
		e := g.AddNode("e", 10, dag.Host)
		g.MustAddEdge(s, o)
		g.MustAddEdge(s, h)
		g.MustAddEdge(o, e)
		g.MustAddEdge(h, e)
		d := int64(float64(g.Volume()) * 0.8) // heavy: U = 1.25
		return taskset.SporadicTask{G: g, Period: d, Deadline: d}
	}
	p := platform.New(
		platform.ResourceClass{Name: "host", Count: 64},
		platform.ResourceClass{Name: "gpu", Count: 1},
		platform.ResourceClass{Name: "fpga", Count: 1},
	)
	// Two GPU tasks + one FPGA task: exactly one task may hold the gpu and
	// one the fpga; the remaining GPU task must fall back to Rhom.
	gpuUsers, fpgaUsers := 0, 0
	for _, g := range mustAdmit(t, p, mkTask(1), mkTask(1), mkTask(2)).Tasks {
		if !g.UsesDevice {
			continue
		}
		switch g.Task {
		case 0, 1:
			gpuUsers++
		case 2:
			fpgaUsers++
		}
	}
	if gpuUsers != 1 {
		t.Errorf("%d tasks hold the single gpu, want exactly 1", gpuUsers)
	}
	if fpgaUsers != 1 {
		t.Errorf("fpga task UsesDevice=%v, want its own class device", fpgaUsers == 1)
	}
	// A class-2 offloader on a platform whose class 2 is empty must not
	// fail outright: it is analyzed with Rhom (offloaded work as host work).
	noFpga := platform.New(
		platform.ResourceClass{Name: "host", Count: 64},
		platform.ResourceClass{Name: "gpu", Count: 1},
	)
	if mustAdmit(t, noFpga, mkTask(2)).Tasks[0].UsesDevice {
		t.Error("task granted a device of a class the platform lacks")
	}
}
