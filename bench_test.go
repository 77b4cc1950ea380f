// Benchmarks regenerating the paper's evaluation, one per figure, plus
// micro-benchmarks of the analysis pipeline and ablations of the design
// choices called out in DESIGN.md. Absolute numbers depend on the machine;
// the figures' qualitative shapes are asserted by the experiment tests.
//
// Run: go test -bench=. -benchmem
package hetrta_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	hetrta "repro"
	"repro/internal/dag"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/rta"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/taskgen"
	"repro/internal/taskset"
	"repro/internal/transform"
)

// benchCfg is a reduced sweep so a full -bench=. pass stays in the minutes
// range; scale via cmd/experiments -scale paper for the full reproduction.
func benchCfg() experiments.Config {
	cfg := experiments.Quick(2018)
	cfg.TasksPerPoint = 6
	cfg.Fractions = []float64{0.02, 0.14, 0.40}
	return cfg
}

// BenchmarkFig6 regenerates Figure 6 (breadth-first simulation of τ vs τ').
func BenchmarkFig6(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(context.Background(), cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (bounds vs exact minimum makespan).
func BenchmarkFig7(b *testing.B) {
	cfg := benchCfg()
	cfg.TasksPerPoint = 4
	panels := []experiments.Fig7Panel{{Platform: platform.Hetero(2), NMin: 3, NMax: 18}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(context.Background(), cfg, panels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates Figure 8 (scenario occurrence).
func BenchmarkFig8(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (Rhom vs Rhet percentage change).
func BenchmarkFig9(b *testing.B) {
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTask builds one large task for micro-benchmarks.
func benchTask(b *testing.B, n int, frac float64) *hetrta.Graph {
	b.Helper()
	gen := taskgen.MustNew(taskgen.Large(n, n+80), 7)
	g, _, _, err := gen.HetTask(frac)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTransform measures Algorithm 1 on ~200-node tasks.
func BenchmarkTransform(b *testing.B) {
	g := benchTask(b, 150, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Transform(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures the paper's pipeline (transform + Rhom +
// naive + Rhet).
func BenchmarkAnalyze(b *testing.B) {
	g := benchTask(b, 150, 0.2)
	p := platform.Hetero(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := transform.Transform(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rta.Rhet(tr, p); err != nil {
			b.Fatal(err)
		}
		if _, err := rta.Naive(g, p); err != nil {
			b.Fatal(err)
		}
		_ = rta.Rhom(g, p)
	}
}

// BenchmarkSimulate measures the discrete-event scheduler on ~200 nodes.
func BenchmarkSimulate(b *testing.B) {
	g := benchTask(b, 150, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Simulate(g, platform.Hetero(8), sched.BreadthFirst()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAncestors measures single-node reachability (a bitset DFS) on a
// ~200-node task, the primitive behind Algorithm 1's Pred(vOff).
func BenchmarkAncestors(b *testing.B) {
	g := benchTask(b, 150, 0.2)
	sink := g.Sinks()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Ancestors(sink)
	}
}

// BenchmarkParallelNodes measures the GPar vertex-set computation
// (ancestors + descendants + word-wise complement).
func BenchmarkParallelNodes(b *testing.B) {
	g := benchTask(b, 150, 0.2)
	vOff, _ := g.OffloadNode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ParallelNodes(vOff)
	}
}

// BenchmarkTopoOrderCached measures the steady-state cost of TopoOrder on
// an unmutated graph: a property-cache hit, which must not allocate.
func BenchmarkTopoOrderCached(b *testing.B) {
	g := benchTask(b, 150, 0.2)
	g.TopoOrder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.TopoOrder(); !ok {
			b.Fatal("cyclic")
		}
	}
}

// BenchmarkPropsRecompute measures a full property-cache rebuild (topo
// order, volume, longest paths) after a mutation invalidates it.
func BenchmarkPropsRecompute(b *testing.B) {
	g := benchTask(b, 150, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SetWCET(0, int64(1+i%7)) // invalidate
		if _, ok := g.TopoOrder(); !ok {
			b.Fatal("cyclic")
		}
	}
}

// BenchmarkExactSmall measures the exact oracle on a paper-Fig-7(a)-sized
// task (n ≤ 16, m = 2) that requires real branch-and-bound search.
func BenchmarkExactSmall(b *testing.B) {
	gen := taskgen.MustNew(taskgen.Small(10, 16), 1)
	g, _, _, err := gen.HetTask(0.15)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.MinMakespan(context.Background(), g, platform.Hetero(2), exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRestrictedVsUnrestricted quantifies the
// Giffler–Thompson branching restriction (DESIGN.md §4.3): the restricted
// search visits far fewer nodes for the same proven optimum. The seed is
// chosen so the instance genuinely branches (≈41k vs ≈98k expansions)
// rather than closing at the root bound.
func BenchmarkAblationRestrictedVsUnrestricted(b *testing.B) {
	gen := taskgen.MustNew(taskgen.Small(10, 16), 6)
	g, _, _, err := gen.HetTask(0.15)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("restricted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.MinMakespan(context.Background(), g, platform.Hetero(2), exact.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unrestricted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.MinMakespan(context.Background(), g, platform.Hetero(2), exact.Options{Unrestricted: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExactMiss measures the exact oracle on the population the
// analyze-miss serving workload feeds it: transitively reduced Small(8,24)
// graphs with c_off 0.15 on a 4+1 platform and a 10k expansion budget.
// One op searches all 200 graphs; about three quarters close at the
// root bound and a few exhaust the budget, which exp/op and capped/op
// report.
func BenchmarkExactMiss(b *testing.B) {
	const graphs = 200
	gen := taskgen.MustNew(taskgen.Small(8, 24), 2)
	gs := make([]*dag.Graph, graphs)
	for i := range gs {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.TransitiveReduction(); err != nil {
			b.Fatal(err)
		}
		gs[i] = g
	}
	opts := exact.Options{MaxExpansions: 10_000}
	var expansions, capped int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range gs {
			r, err := exact.MinMakespan(context.Background(), g, platform.Hetero(4), opts)
			if err != nil {
				b.Fatal(err)
			}
			expansions += r.Expansions
			if r.Status == exact.Feasible {
				capped++
			}
		}
	}
	b.ReportMetric(float64(expansions)/float64(b.N), "exp/op")
	b.ReportMetric(float64(capped)/float64(b.N), "capped/op")
}

// BenchmarkAblationPolicies compares scheduling policies on the same task
// set (the §5.2 discussion: breadth-first vs alternatives).
func BenchmarkAblationPolicies(b *testing.B) {
	g := benchTask(b, 150, 0.2)
	for _, pol := range []func() sched.Policy{
		sched.BreadthFirst, sched.LIFO, sched.CriticalPathFirst,
	} {
		p := pol()
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Simulate(g, platform.Hetero(8), pol()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdmitDelta measures the serving layer's delta-admission path on
// a warm 32-task resident base against the from-scratch whole-set
// baseline. Every iteration is a cold delta: the newcomer is a freshly
// cloned graph (the request-decode analog, charged to the path that
// hashes it) with a period no other iteration uses, so no iteration is an
// admit-cache hit. A longer period only lowers the newcomer's
// utilization, so every resulting set stays schedulable.
func BenchmarkAdmitDelta(b *testing.B) {
	ctx := context.Background()
	const baseN = 32
	pool, err := taskset.Generate(taskset.TasksetParams{
		N: baseN + 1, Util: float64(baseN+1) / float64(baseN),
		OffloadShare: 0.25, COffFrac: 0.3, Params: taskgen.Small(10, 30),
	}, 2018)
	if err != nil {
		b.Fatal(err)
	}
	base := pool.Tasks[:baseN]
	template := pool.Tasks[baseN]
	newcomer := func(i int) hetrta.SporadicTask {
		t := template
		t.G = t.G.Clone()
		t.Period += int64(i)
		return t
	}
	warmSvc := func(b *testing.B) (*service.Service, hetrta.TasksetFingerprint) {
		b.Helper()
		an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(platform.Hetero(4)))
		if err != nil {
			b.Fatal(err)
		}
		svc, err := service.New(an, service.Options{})
		if err != nil {
			b.Fatal(err)
		}
		warm, err := svc.Admit(ctx, hetrta.Taskset{Tasks: base})
		if err != nil {
			b.Fatal(err)
		}
		return svc, warm.Fingerprint
	}

	// One arrival anchored at the warm base: cold per-task eval for the
	// newcomer, the base's resident eval handles for the rest.
	b.Run("arrival", func(b *testing.B) {
		svc, fp := warmSvc(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.AdmitDelta(ctx, fp, hetrta.TasksetDelta{Add: []hetrta.SporadicTask{newcomer(i)}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// An arrival/departure pair per op, the departure anchored at the
	// arrival's result — one event of a churning resident set.
	b.Run("churn", func(b *testing.B) {
		svc, fp := warmSvc(b)
		victims := make([]hetrta.TaskDigest, len(base))
		for i, t := range base {
			victims[i] = t.Digest()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ar, err := svc.AdmitDelta(ctx, fp, hetrta.TasksetDelta{Add: []hetrta.SporadicTask{newcomer(i)}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := svc.AdmitDelta(ctx, ar.Fingerprint, hetrta.TasksetDelta{Remove: []hetrta.TaskDigest{victims[i%len(victims)]}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The stateless baseline: the whole resulting 33-task set re-admitted
	// from scratch (fresh graphs each iteration — a stateless daemon
	// re-decodes and re-hashes every request) and marshaled, as a serving
	// daemon would.
	b.Run("full", func(b *testing.B) {
		an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(platform.Hetero(4)))
		if err != nil {
			b.Fatal(err)
		}
		ta, err := hetrta.NewTasksetAnalyzer(an)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set := hetrta.Taskset{Tasks: make([]hetrta.SporadicTask, 0, baseN+1)}
			for _, t := range base {
				t.G = t.G.Clone()
				set.Tasks = append(set.Tasks, t)
			}
			set.Tasks = append(set.Tasks, newcomer(i))
			rep, err := ta.Admit(ctx, set)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rep.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchAdmitBodies returns the two admission request bodies of the
// admit-churn serving workload, in the wire form its client sends: a full
// re-admission of a 32-task set drawn as BenchmarkAdmitDelta draws its
// base, and a delta adding one task to it.
func benchAdmitBodies(b *testing.B) (full, delta []byte) {
	b.Helper()
	pool, err := taskset.Generate(taskset.TasksetParams{
		N: 33, Util: 33.0 / 32, OffloadShare: 0.25, COffFrac: 0.3, Params: taskgen.Small(10, 30),
	}, 2018)
	if err != nil {
		b.Fatal(err)
	}
	type wireTask struct {
		Graph    *hetrta.Graph `json:"graph"`
		Period   int64         `json:"period"`
		Deadline int64         `json:"deadline"`
		Jitter   int64         `json:"jitter,omitempty"`
	}
	wire := make([]wireTask, len(pool.Tasks))
	for i, t := range pool.Tasks {
		wire[i] = wireTask{t.G, t.Period, t.Deadline, t.Jitter}
	}
	base := hetrta.Taskset{Tasks: pool.Tasks[:32]}
	if full, err = json.Marshal(map[string]any{"tasks": wire[:32]}); err != nil {
		b.Fatal(err)
	}
	if delta, err = json.Marshal(map[string]any{"base": base.Fingerprint().String(), "add": wire[32:]}); err != nil {
		b.Fatal(err)
	}
	return full, delta
}

// BenchmarkAdmitDecode measures admission request decoding, wire bytes to
// a taskset or a delta: "full" is a 32-task /v1/admit body (about 27 KB),
// "delta" a one-arrival /v1/admit/delta body, each through the daemon's
// decoder ("scan", one pass) and through the encoding/json reference path
// it falls back to ("reference").
func BenchmarkAdmitDecode(b *testing.B) {
	full, delta := benchAdmitBodies(b)
	decoders := []struct {
		name  string
		admit func([]byte, int) (hetrta.Taskset, error)
		delta func([]byte, int) (hetrta.TasksetFingerprint, hetrta.TasksetDelta, error)
	}{
		{"scan", hetrta.DecodeAdmitRequest, hetrta.DecodeAdmitDeltaRequest},
		{"reference", hetrta.DecodeAdmitRequestReference, hetrta.DecodeAdmitDeltaRequestReference},
	}
	// Each sub-benchmark decodes once before b.Loop, which restarts the
	// timer and the allocation count: one-time warm-up allocations would
	// otherwise dominate a 2-iteration run.
	for _, d := range decoders {
		b.Run("full/"+d.name, func(b *testing.B) {
			decode := func() {
				if ts, err := d.admit(full, 64); err != nil || len(ts.Tasks) != 32 {
					b.Fatalf("%d tasks, err %v", len(ts.Tasks), err)
				}
			}
			decode()
			b.SetBytes(int64(len(full)))
			b.ReportAllocs()
			for b.Loop() {
				decode()
			}
		})
	}
	for _, d := range decoders {
		b.Run("delta/"+d.name, func(b *testing.B) {
			decode := func() {
				if _, dl, err := d.delta(delta, 64); err != nil || len(dl.Add) != 1 {
					b.Fatalf("%d arrivals, err %v", len(dl.Add), err)
				}
			}
			decode()
			b.SetBytes(int64(len(delta)))
			b.ReportAllocs()
			for b.Loop() {
				decode()
			}
		})
	}
}

// BenchmarkAdmitReportMarshal measures the hand-written AdmitReport
// encoder on the report of a 32-task admission (the base of
// BenchmarkAdmitDelta), as the daemon marshals every cache-missing
// admission.
func BenchmarkAdmitReportMarshal(b *testing.B) {
	pool, err := taskset.Generate(taskset.TasksetParams{
		N: 32, Util: 1, OffloadShare: 0.25, COffFrac: 0.3, Params: taskgen.Small(10, 30),
	}, 2018)
	if err != nil {
		b.Fatal(err)
	}
	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(platform.Hetero(4)))
	if err != nil {
		b.Fatal(err)
	}
	ta, err := hetrta.NewTasksetAnalyzer(an)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := ta.Admit(context.Background(), pool)
	if err != nil {
		b.Fatal(err)
	}
	// One marshal before b.Loop keeps one-time warm-up allocations out of
	// a 2-iteration run.
	if _, err := rep.MarshalJSON(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := rep.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireGraph is a 16-node heterogeneous task in the wire form the
// daemon receives, the size of the serving benchmark's median hot graph.
func benchWireGraph(b *testing.B) []byte {
	b.Helper()
	g, _, _, err := taskgen.MustNew(taskgen.Small(16, 16), 2018).HetTask(0.15)
	if err != nil {
		b.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkGraphDecode measures request-graph decoding, wire bytes to a
// *Graph: "decode" through dag.Decode, the daemon's entry point, and
// "unmarshal" through json.Unmarshal, the CLIs' and the store's.
func BenchmarkGraphDecode(b *testing.B) {
	data := benchWireGraph(b)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := dag.Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := json.Unmarshal(data, hetrta.NewGraph()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFingerprint measures the canonical hash (color refinement,
// canonical order, SHA-256) of the decode benchmark's graph, with the memo
// invalidated before every call as on a freshly decoded request. One call
// before the loop fills the scratch pool, as a serving daemon's is, so that
// short runs such as -benchtime 2x measure the steady state too.
func BenchmarkFingerprint(b *testing.B) {
	g, err := dag.Decode(benchWireGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	g.Fingerprint()
	b.ReportAllocs()
	for b.Loop() {
		g.SetWCET(0, g.WCET(0)) // a no-op mutation: invalidates the memo
		g.Fingerprint()
	}
}

// BenchmarkServiceBatch measures Service.AnalyzeBatch on a batch shaped
// like the serving benchmark's analyze-miss batches: eight graphs on a
// 4+1 platform with the exact stage, a 10k expansion budget and the
// daemon's overload-protection layer. "miss" serves six new graphs, one
// in-batch duplicate and one resident graph on a fresh Service per op
// (setup untimed); "hit" serves all eight from the cache.
func BenchmarkServiceBatch(b *testing.B) {
	ctx := context.Background()
	an := missAnalyzer(b)
	newSvc := func(b *testing.B) *service.Service {
		svc, err := service.New(an, service.Options{Resilience: &service.ResilienceOptions{}})
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	gen := taskgen.MustNew(taskgen.Small(8, 24), 2018)
	distinct := make([]*hetrta.Graph, 7)
	for i := range distinct {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			b.Fatal(err)
		}
		distinct[i] = g
	}
	// Six new graphs, a duplicate of the third, and the resident graph.
	gs := append(append([]*hetrta.Graph(nil), distinct[:6]...), distinct[2].Clone(), distinct[6])
	run := func(b *testing.B, svc *service.Service) {
		res, err := svc.AnalyzeBatch(ctx, gs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}

	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := newSvc(b)
			if _, err := svc.Analyze(ctx, distinct[6]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			run(b, svc)
		}
	})
	b.Run("hit", func(b *testing.B) {
		svc := newSvc(b)
		run(b, svc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, svc)
		}
	})
}

// missAnalyzer is the analyzer of the serving benchmark's analyze-miss
// daemon: a 4+1 platform, the three safe bounds, the breadth-first
// simulation, and the exact stage with a 10k expansion budget, degrading
// when the budget runs out.
func missAnalyzer(b *testing.B) *hetrta.Analyzer {
	b.Helper()
	plat, err := hetrta.ParsePlatform("4+1")
	if err != nil {
		b.Fatal(err)
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(plat),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()),
		hetrta.WithPolicy(hetrta.BreadthFirst),
		hetrta.WithExactOptions(hetrta.ExactOptions{MaxExpansions: 10_000}),
		hetrta.WithDegradation(hetrta.DegradeOptions{}),
	)
	if err != nil {
		b.Fatal(err)
	}
	return an
}

// BenchmarkServiceResident measures what the service keeps per cached
// analysis, on analyze-miss-shaped graphs (Small(8,24), c_off 0.15) under
// missAnalyzer with the daemon's overload-protection layer. "fill"
// analyzes 256 new graphs into a fresh Service per op and reports the
// heap the filled cache retains per entry as B/entry (the live heap after
// a full GC, against the same before the fill). "hit" serves one resident
// graph: the cache lookup alone, since the graph's fingerprint is
// memoized after the first request.
func BenchmarkServiceResident(b *testing.B) {
	const entries = 256
	ctx := context.Background()
	an := missAnalyzer(b)
	newSvc := func(b *testing.B) *service.Service {
		svc, err := service.New(an, service.Options{Resilience: &service.ResilienceOptions{}})
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	gen := taskgen.MustNew(taskgen.Small(8, 24), 2)
	gs := make([]*hetrta.Graph, entries)
	warm := newSvc(b)
	for i := range gs {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			b.Fatal(err)
		}
		// Analyzing once fills the graph's own memoized properties, so
		// the fills below measure only what the service retains.
		if _, err := warm.Analyze(ctx, g); err != nil {
			b.Fatal(err)
		}
		gs[i] = g
	}
	b.Run("fill", func(b *testing.B) {
		var retained int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := newSvc(b)
			before := liveHeap()
			b.StartTimer()
			for _, g := range gs {
				if _, err := svc.Analyze(ctx, g); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			retained += liveHeap() - before
			if n := svc.Stats().Entries; n != entries {
				b.Fatalf("cache holds %d entries, want %d", n, entries)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(retained)/float64(b.N*entries), "B/entry")
	})
	b.Run("hit", func(b *testing.B) {
		svc := newSvc(b)
		if _, err := svc.Analyze(ctx, gs[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := svc.Analyze(ctx, gs[0])
			if err != nil {
				b.Fatal(err)
			}
			if !r.Hit {
				b.Fatal("resident graph missed the cache")
			}
		}
	})
}

// liveHeap is the live heap after two collections: the first moves
// pooled objects to the victim cache, the second frees them.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkServiceAdmitResident measures what the service keeps per
// cached admission, on BenchmarkAdmitDelta's 32-task base. "fill" admits
// the base and then 64 one-arrival deltas against it into a fresh Service
// per op, and reports the heap the filled cache retains per admit entry
// as B/entry: the live heap after the fill against the same before it,
// over the 65 admit entries. That heap also holds the 96 per-task eval
// entries and the Global step memo behind them. Each fill decodes its
// arrivals from their /v1/admit/delta bodies, as the daemon does, so no
// arrival graph outlives the fill unless the service keeps it. "hit"
// serves one resident delta.
func BenchmarkServiceAdmitResident(b *testing.B) {
	const baseN, deltas = 32, 64
	ctx := context.Background()
	pool, err := taskset.Generate(taskset.TasksetParams{
		N: baseN + 1, Util: float64(baseN+1) / float64(baseN),
		OffloadShare: 0.25, COffFrac: 0.3, Params: taskgen.Small(10, 30),
	}, 2018)
	if err != nil {
		b.Fatal(err)
	}
	base := hetrta.Taskset{Tasks: pool.Tasks[:baseN]}
	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(platform.Hetero(4)))
	if err != nil {
		b.Fatal(err)
	}
	newSvc := func(b *testing.B) *service.Service {
		svc, err := service.New(an, service.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	// fill admits the base and every arrival; the first pass, on a
	// throwaway service, fills the base graphs' own memoized properties,
	// so the measured fills see only what the service retains.
	baseFP := base.Fingerprint()
	arrival := pool.Tasks[baseN]
	arrivals := make([][]byte, deltas)
	for i := range arrivals {
		type wireTask struct {
			Graph    *hetrta.Graph `json:"graph"`
			Period   int64         `json:"period"`
			Deadline int64         `json:"deadline"`
		}
		arrivals[i], err = json.Marshal(struct {
			Base string     `json:"base"`
			Add  []wireTask `json:"add"`
		}{baseFP.String(), []wireTask{{arrival.G, arrival.Period + int64(i), arrival.Deadline}}})
		if err != nil {
			b.Fatal(err)
		}
	}
	decode := func(b *testing.B, body []byte) (hetrta.TasksetFingerprint, hetrta.TasksetDelta) {
		fp, d, err := hetrta.DecodeAdmitDeltaRequest(body, 1)
		if err != nil {
			b.Fatal(err)
		}
		return fp, d
	}
	fill := func(b *testing.B, svc *service.Service) hetrta.TasksetFingerprint {
		warm, err := svc.Admit(ctx, base)
		if err != nil {
			b.Fatal(err)
		}
		if warm.Fingerprint != baseFP {
			b.Fatal("base fingerprint differs from its admission's")
		}
		for _, body := range arrivals {
			fp, d := decode(b, body)
			if _, err := svc.AdmitDelta(ctx, fp, d); err != nil {
				b.Fatal(err)
			}
		}
		return warm.Fingerprint
	}
	fill(b, newSvc(b))

	b.Run("fill", func(b *testing.B) {
		var retained int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := newSvc(b)
			before := liveHeap()
			b.StartTimer()
			fill(b, svc)
			b.StopTimer()
			retained += liveHeap() - before
			if n := svc.Stats().Entries; n != (deltas+1)+(baseN+deltas) {
				b.Fatalf("cache holds %d entries, want %d admit and %d eval entries", n, deltas+1, baseN+deltas)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(retained)/float64(b.N*(deltas+1)), "B/entry")
	})
	b.Run("hit", func(b *testing.B) {
		svc := newSvc(b)
		fill(b, svc)
		fp, d := decode(b, arrivals[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := svc.AdmitDelta(ctx, fp, d)
			if err != nil {
				b.Fatal(err)
			}
			if !r.Hit {
				b.Fatal("resident delta missed the cache")
			}
		}
	})
}

// storeSpillBodies returns n report bodies shaped like the serving
// benchmark's store-spill workload: Small(8,24) graphs with offload share
// 0.15, analyzed on a 4+1 platform with the three safe bounds and the
// breadth-first simulation, marshaled as the cache stores them.
func storeSpillBodies(b *testing.B, n int) [][]byte {
	b.Helper()
	plat, err := hetrta.ParsePlatform("4+1")
	if err != nil {
		b.Fatal(err)
	}
	an, err := hetrta.NewAnalyzer(
		hetrta.WithPlatform(plat),
		hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.TypedRhomBound()),
		hetrta.WithPolicy(hetrta.BreadthFirst),
	)
	if err != nil {
		b.Fatal(err)
	}
	gen := taskgen.MustNew(taskgen.Small(8, 24), 2018)
	bodies := make([][]byte, n)
	for i := range bodies {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := an.Analyze(context.Background(), g)
		if err != nil {
			b.Fatal(err)
		}
		if bodies[i], err = json.Marshal(rep); err != nil {
			b.Fatal(err)
		}
	}
	return bodies
}

// BenchmarkReportDecode measures stored-report decoding, bytes to a
// *Report, over 256 store-spill bodies per op: "scan" through
// hetrta.DecodeReport, the durable tier's decoder, and "reference"
// through the encoding/json path it falls back to. ns/body is the cost of
// one record.
func BenchmarkReportDecode(b *testing.B) {
	bodies := storeSpillBodies(b, 256)
	var size int64
	for _, body := range bodies {
		size += int64(len(body))
	}
	decoders := []struct {
		name   string
		decode func([]byte) (*hetrta.Report, error)
	}{
		{"scan", hetrta.DecodeReport},
		{"reference", hetrta.DecodeReportReference},
	}
	for _, d := range decoders {
		b.Run(d.name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for b.Loop() {
				for _, body := range bodies {
					if _, err := d.decode(body); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bodies)), "ns/body")
		})
	}
}

// BenchmarkWarmStart measures a daemon restart on the store-spill shape:
// store.Open (the index scan) plus Service.AttachStore (the warm start)
// over a log of 16,384 report records into a 2,048-entry cache. The
// records cycle the bodies of 16 analyzed graphs under distinct keys;
// each op opens the same log into a fresh Service.
func BenchmarkWarmStart(b *testing.B) {
	const records, cacheEntries = 16384, 2048
	ctx := context.Background()
	an, err := hetrta.NewAnalyzer()
	if err != nil {
		b.Fatal(err)
	}
	newSvc := func(b *testing.B) *service.Service {
		svc, err := service.New(an, service.Options{CacheEntries: cacheEntries})
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	svc := newSvc(b)
	gen := taskgen.MustNew(taskgen.Small(8, 24), 2018)
	bodies := make([][]byte, 16)
	for i := range bodies {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			b.Fatal(err)
		}
		res, err := svc.Analyze(ctx, g)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = res.Body
	}
	path := filepath.Join(b.TempDir(), "cache.log")
	opts := store.Options{Path: path, Generation: svc.Generation(), QueueDepth: records}
	st, err := store.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := range records {
		// Kind 1 is a report record, under the key the service spells for it.
		st.Append(1, fmt.Sprintf("%064x|%s", i, svc.Signature()), bodies[i%len(bodies)])
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if n := st.Stats().LiveKeys; n != records {
		b.Fatalf("log holds %d live keys, want %d", n, records)
	}

	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := newSvc(b)
		b.StartTimer()
		st, err := store.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.AttachStore(st); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := svc.Stats().Store.WarmLoaded; n != cacheEntries {
			b.Fatalf("warm start loaded %d records, want %d", n, cacheEntries)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkStore measures the store tier alone, on a log of 16,384 records
// whose keys are 167 bytes long, as an analyze-miss cache key is (64 hex
// digits, "|", a 102-byte signature), and whose values cycle 16
// store-spill report bodies. "open" opens the log per op, which scans it
// into the index, and reports the heap the open store retains per key as
// B/key. "get" is one CRC-checked, key-verified read of a resident key.
// "append" is one framed, CRC'd append of a 167-byte key and a report
// body, timed through the Flush that waits for the write-behind writer.
func BenchmarkStore(b *testing.B) {
	const records = 16384
	bodies := storeSpillBodies(b, 16)
	sig := strings.Repeat("s", 102)
	keys := make([]string, records)
	opts := store.Options{Path: filepath.Join(b.TempDir(), "cache.log"), Generation: "bench"}
	fillOpts := opts
	fillOpts.QueueDepth = records // the fill sheds nothing; the measured opens keep the default queue
	st, err := store.Open(fillOpts)
	if err != nil {
		b.Fatal(err)
	}
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x|%s", i, sig)
		st.Append(1, keys[i], bodies[i%len(bodies)])
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if n := st.Stats().LiveKeys; n != records {
		b.Fatalf("log holds %d live keys, want %d", n, records)
	}

	b.Run("open", func(b *testing.B) {
		var retained int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			before := liveHeap()
			b.StartTimer()
			st, err := store.Open(opts)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			retained += liveHeap() - before
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(retained)/float64(b.N*records), "B/key")
	})
	b.Run("get", func(b *testing.B) {
		st, err := store.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		key := keys[records/2]
		b.ReportAllocs()
		for b.Loop() {
			if _, _, ok := st.Get(key); !ok {
				b.Fatal("resident key missed")
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		// The log is started afresh every appendsPerLog appends, untimed,
		// so that long runs do not fill the disk.
		const appendsPerLog = 4096
		path := filepath.Join(b.TempDir(), "append.log")
		open := func() *store.Store {
			st, err := store.Open(store.Options{Path: path, Generation: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			return st
		}
		reset := func(st *store.Store) {
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			if s := st.Stats(); s.Dropped != 0 || s.AppendErrors != 0 {
				b.Fatalf("store dropped %d appends, failed %d", s.Dropped, s.AppendErrors)
			}
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
		}
		st := open()
		body := bodies[0]
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			if n == appendsPerLog {
				b.StopTimer()
				reset(st)
				st, n = open(), 0
				b.StartTimer()
			}
			st.Append(1, keys[n], body)
			st.Flush()
			n++
		}
		reset(st)
	})
}
