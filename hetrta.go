// Package hetrta is a response-time analysis toolkit for sporadic DAG tasks
// on heterogeneous platforms (a multicore host plus accelerator devices),
// reproducing Serrano & Quiñones, "Response-Time Analysis of DAG Tasks
// Supporting Heterogeneous Computing", DAC 2018.
//
// The package is a facade over the implementation packages:
//
//   - building and validating task graphs (NewGraph, NodeKind, Validate),
//     with each node mapped to a platform resource class (host cores or a
//     device class — see SetClass for multi-accelerator tasks);
//   - the homogeneous bound Rhom (Eq. 1), the DAG transformation inserting
//     synchronization nodes (Algorithm 1, iterated over every offloaded
//     region by TransformAll), and the heterogeneous bound Rhet with its
//     three scenarios (Theorem 1, Eqs. 2–4);
//   - a discrete-event work-conserving scheduler simulator (GOMP-like
//     breadth-first and other policies) on any mix of resource classes;
//   - an exact minimum-makespan oracle (branch and bound; the paper used
//     CPLEX);
//   - the random task generator of the paper's evaluation and harnesses
//     regenerating every figure (see cmd/experiments), including a
//     multi-offload × device-class sweep beyond the paper.
//
// # Quick start
//
// The entry point is the Analyzer: construct once with functional options,
// then analyze one graph — or millions, concurrently — against it.
//
//	g := hetrta.NewGraph()
//	load := g.AddNode("load", 2, hetrta.Host)
//	kern := g.AddNode("kernel", 8, hetrta.Offload) // runs on the GPU
//	post := g.AddNode("post", 3, hetrta.Host)
//	g.MustAddEdge(load, kern)
//	g.MustAddEdge(kern, post)
//
//	an, err := hetrta.NewAnalyzer(hetrta.WithPlatform(hetrta.HeteroPlatform(4)))
//	if err != nil { ... }
//	report, err := an.Analyze(ctx, g) // 4 host cores + 1 accelerator
//	if err != nil { ... }
//	rhet, _ := report.BoundValue("rhet")
//
// Platforms beyond the paper's "m cores + 1 device" are built from named
// resource classes:
//
//	p := hetrta.NewPlatform(
//	    hetrta.ResourceClass{Name: "host", Count: 4},
//	    hetrta.ResourceClass{Name: "gpu", Count: 1},
//	    hetrta.ResourceClass{Name: "fpga", Count: 2},
//	)
//	g.SetClass(kern, 2) // kernel runs on an FPGA (class index into p.Classes)
//
// Reports are JSON-serializable; AnalyzeBatch fans a slice of graphs out on
// a worker pool with deterministic output order; the context cancels
// long-running stages (notably the exact oracle) promptly.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package hetrta

import (
	"context"

	"repro/internal/dag"
	"repro/internal/exact"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/transform"
)

// Graph is the DAG task model G = (V, E): nodes are sequential jobs with
// WCETs, edges are precedence constraints, and any number of nodes may be
// marked Offload (each assigned to a device resource class).
type Graph = dag.Graph

// NodeKind says whether a node runs on the host, is offloaded, or is a
// synchronization node.
type NodeKind = dag.NodeKind

// Node kinds.
const (
	// Host nodes execute on one of the m identical host cores.
	Host = dag.Host
	// Offload marks a node executed on an accelerator device (its Class
	// says which device class).
	Offload = dag.Offload
	// Sync marks zero-WCET synchronization nodes inserted by Transform.
	Sync = dag.Sync
)

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return dag.New() }

// Fingerprint is a graph's canonical content hash (Graph.Fingerprint):
// invariant under node relabeling, invalidated by mutation, and — combined
// with Analyzer.Signature — the cache key of the serving layer.
type Fingerprint = dag.Fingerprint

// ValidateOptions tunes Graph validation; PaperModel returns the options
// matching the paper's system model.
type ValidateOptions = dag.ValidateOptions

// PaperModel returns validation options for the paper's system model.
func PaperModel() ValidateOptions { return dag.PaperModel() }

// Transformation is the result of Algorithm 1 (τ ⇒ τ') around one
// offloaded node.
type Transformation = transform.Result

// Transform runs Algorithm 1: it inserts the synchronization node vsync
// before vOff and the parallel sub-DAG GPar, guaranteeing they start
// together. The input must be transitively reduced (see Reduce). For tasks
// with several offloaded nodes, use TransformAll.
func Transform(g *Graph) (*Transformation, error) { return transform.Transform(g) }

// CheckTransform verifies the structural guarantees of a transformation
// (precedence preservation, GPar gating, volume conservation).
func CheckTransform(t *Transformation) error { return transform.Check(t) }

// Platform describes the execution platform shared by every layer of the
// toolkit: an ordered list of resource classes, Classes[0] being the host
// class and every further class a device class. The Cores()/Devices()
// views summarize it in the paper's two numbers.
type Platform = platform.Platform

// ResourceClass is one named class of identical machines on a Platform.
type ResourceClass = platform.ResourceClass

// NewPlatform builds a platform from an explicit class list; the first
// class is the host class.
func NewPlatform(classes ...ResourceClass) Platform { return platform.New(classes...) }

// ParsePlatform builds a platform from a compact spec such as "4", "4+1",
// or "host=4,gpu=1,fpga=2" (first entry is the host class).
func ParsePlatform(spec string) (Platform, error) { return platform.Parse(spec) }

// HeteroPlatform returns the paper's platform: m host cores + 1 device.
func HeteroPlatform(m int) Platform { return platform.Hetero(m) }

// HomogeneousPlatform returns an m-core host-only platform.
func HomogeneousPlatform(m int) Platform { return platform.Homogeneous(m) }

// Policy selects among ready nodes during simulation.
type Policy = sched.Policy

// BreadthFirst returns the GOMP-like FIFO dispatch policy used by the
// paper's Figure 6 simulations.
func BreadthFirst() Policy { return sched.BreadthFirst() }

// SimResult is a simulated schedule (makespan, spans, Gantt rendering).
type SimResult = sched.Result

// Simulate executes one task instance under a work-conserving policy.
func Simulate(g *Graph, p Platform, pol Policy) (*SimResult, error) {
	return sched.Simulate(g, p, pol)
}

// ExactResult is the outcome of the minimum-makespan oracle.
type ExactResult = exact.Result

// ExactOptions budget the exact search.
type ExactOptions = exact.Options

// MinMakespanContext computes the minimum makespan of g on p (the quantity
// the paper obtains from CPLEX), proving optimality when the budget
// allows, and aborting promptly with ctx's error when the context is
// cancelled mid-search.
func MinMakespanContext(ctx context.Context, g *Graph, p Platform, opts ExactOptions) (*ExactResult, error) {
	return exact.MinMakespan(ctx, g, p, opts)
}

// GenParams are the random task generator parameters of Section 5.1.
type GenParams = taskgen.Params

// Generator produces random DAG tasks.
type Generator = taskgen.Generator

// SmallTasks returns the paper's small-task parameters (npar=6, maxdepth=3)
// with the given node range.
func SmallTasks(nMin, nMax int) GenParams { return taskgen.Small(nMin, nMax) }

// LargeTasks returns the paper's large-task parameters (npar=8, maxdepth=5).
func LargeTasks(nMin, nMax int) GenParams { return taskgen.Large(nMin, nMax) }

// NewGenerator returns a seeded task generator.
func NewGenerator(p GenParams, seed int64) (*Generator, error) { return taskgen.New(p, seed) }

// SetOffload marks node id as vOff with a WCET equal to frac of the
// resulting volume, returning the realized fraction.
func SetOffload(g *Graph, id int, frac float64) float64 { return taskgen.SetOffload(g, id, frac) }
