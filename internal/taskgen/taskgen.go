// Package taskgen generates random DAG tasks following the experimental
// setup of Section 5.1 of the paper (which in turn follows Melani et al.,
// ECRTS 2015, and Serrano et al., DATE 2016):
//
// "Random DAG tasks are generated by recursively expanding nodes either to
// terminal nodes or parallel sub-DAGs, until a maximum recursion depth
// maxdepth is reached. maxdepth also determines the longest possible path of
// the DAG. The probabilities of generating a parallel sub-DAG or a terminal
// node are ppar and 1 − ppar, respectively. Moreover, the maximum number of
// branches for any parallel sub-DAG is npar and the minimum and maximum
// number of nodes of each DAG are nmin and nmax. The WCET of each node,
// except vOff, is uniformly selected as a positive integer in the interval
// [Cmin, Cmax] = [1, 100]. Once a DAG is generated, we randomly select vOff
// among all the nodes."
//
// The recursive expansion produces nested fork–join (series–parallel) DAGs:
// a parallel sub-DAG is a fork node, 2..npar recursively expanded branches,
// and a join node. A DAG expanded to depth d therefore has a longest
// possible path of 2·maxdepth + 1 nodes, matching the paper's "longest path
// equals 7" for maxdepth = 3 and "equals 11" for maxdepth = 5. Graphs are
// single-source/single-sink and transitively reduced by construction.
//
// All randomness is drawn from an explicit *rand.Rand so experiments are
// reproducible from their seed.
package taskgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dag"
)

// Params are the generator knobs of Section 5.1.
type Params struct {
	// PPar is the probability of expanding a position into a parallel
	// sub-DAG rather than a terminal node. The paper uses 0.5.
	PPar float64
	// NPar is the maximum number of branches of a parallel sub-DAG.
	NPar int
	// MaxDepth is the maximum recursion depth.
	MaxDepth int
	// NMin and NMax bound the accepted number of nodes; generation retries
	// until the expanded DAG falls within [NMin, NMax].
	NMin, NMax int
	// CMin and CMax bound node WCETs (inclusive).
	CMin, CMax int64
	// MaxRetries bounds the rejection-sampling loop (0 means a sensible
	// default). Exceeding it is reported as an error rather than looping
	// forever on unsatisfiable parameters.
	MaxRetries int
}

// Small returns the paper's "small tasks" parameters: n ≤ 100, npar = 6,
// maxdepth = 3 (longest path 7 nodes), used for the ILP comparison.
// nRange further narrows n per figure (e.g. [3,20] in Fig. 7(a)).
func Small(nMin, nMax int) Params {
	return Params{PPar: 0.5, NPar: 6, MaxDepth: 3, NMin: nMin, NMax: nMax, CMin: 1, CMax: 100}
}

// Large returns the paper's "large tasks" parameters: n ∈ [100, 400],
// npar = 8, maxdepth = 5 (longest path 11 nodes).
func Large(nMin, nMax int) Params {
	return Params{PPar: 0.5, NPar: 8, MaxDepth: 5, NMin: nMin, NMax: nMax, CMin: 1, CMax: 100}
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.PPar < 0 || p.PPar > 1:
		return fmt.Errorf("taskgen: PPar %v outside [0,1]", p.PPar)
	case p.NPar < 2:
		return fmt.Errorf("taskgen: NPar %d < 2", p.NPar)
	case p.MaxDepth < 1:
		return fmt.Errorf("taskgen: MaxDepth %d < 1", p.MaxDepth)
	case p.NMin < 1 || p.NMax < p.NMin:
		return fmt.Errorf("taskgen: bad node range [%d,%d]", p.NMin, p.NMax)
	case p.CMin < 1 || p.CMax < p.CMin:
		return fmt.Errorf("taskgen: bad WCET range [%d,%d]", p.CMin, p.CMax)
	}
	return nil
}

// Generator produces random DAG tasks. It is not safe for concurrent use
// (it owns one RNG stream and reuses internal build buffers across calls).
type Generator struct {
	p Params
	r *rand.Rand

	// Reusable build buffers: expand appends nodes and edge pairs here, and
	// only an ACCEPTED attempt is materialized into a dag.Graph. Rejected
	// attempts (node count outside [NMin, NMax]) therefore cost no
	// allocations once the buffers have grown to their working size.
	nodes []dag.Node
	edges [][2]int
	deg   []int
	rows  [][]int
	bulk  []int
}

// addNode appends a buffered node and returns its ID.
func (gen *Generator) addNode(wcet int64) int {
	id := len(gen.nodes)
	gen.nodes = append(gen.nodes, dag.Node{ID: id, WCET: wcet, Kind: dag.Host})
	return id
}

// build materializes the buffered nodes/edges as a Graph. The expansion
// appends each node's successors in ascending-ID order (branch entries are
// created in ID order; joins connect upward to older joins one at a time),
// so the CSR rows below satisfy FromAdjacency's sorted-unique requirement.
func (gen *Generator) build() (*dag.Graph, error) {
	n := len(gen.nodes)
	if cap(gen.deg) < n {
		gen.deg = make([]int, n)
		gen.rows = make([][]int, n)
	}
	deg, rows := gen.deg[:n], gen.rows[:n]
	for i := range deg {
		deg[i] = 0
	}
	for _, e := range gen.edges {
		deg[e[0]]++
	}
	if cap(gen.bulk) < len(gen.edges) {
		gen.bulk = make([]int, len(gen.edges))
	}
	bulk := gen.bulk[:len(gen.edges)]
	off := 0
	for v := 0; v < n; v++ {
		rows[v] = bulk[off : off : off+deg[v]]
		off += deg[v]
	}
	for _, e := range gen.edges {
		rows[e[0]] = append(rows[e[0]], e[1])
	}
	return dag.FromAdjacency(gen.nodes, rows)
}

// New returns a generator with the given parameters and seed.
func New(p Params, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Generator{p: p, r: rand.New(rand.NewSource(seed))}, nil
}

// MustNew is New that panics on invalid parameters.
func MustNew(p Params, seed int64) *Generator {
	g, err := New(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Params returns the generator's parameters.
func (gen *Generator) Params() Params { return gen.p }

// Graph generates one random host-only DAG whose node count lies in
// [NMin, NMax]. The result has a single source, a single sink, no redundant
// edges, and WCETs in [CMin, CMax].
func (gen *Generator) Graph() (*dag.Graph, error) {
	retries := gen.p.MaxRetries
	if retries == 0 {
		retries = 10000
	}
	for i := 0; i < retries; i++ {
		gen.nodes = gen.nodes[:0]
		gen.edges = gen.edges[:0]
		gen.expand(0)
		if n := len(gen.nodes); n < gen.p.NMin || n > gen.p.NMax {
			continue
		}
		return gen.build()
	}
	return nil, fmt.Errorf("taskgen: no DAG with n in [%d,%d] after %d retries (params %+v)",
		gen.p.NMin, gen.p.NMax, retries, gen.p)
}

// expand emits a sub-DAG with a single entry and a single exit node into the
// generator's build buffers and returns their IDs. depth counts expansions
// performed so far.
func (gen *Generator) expand(depth int) (entry, exit int) {
	if depth >= gen.p.MaxDepth || gen.r.Float64() >= gen.p.PPar {
		id := gen.addNode(gen.wcet())
		return id, id
	}
	fork := gen.addNode(gen.wcet())
	join := gen.addNode(gen.wcet())
	branches := 2 + gen.r.Intn(gen.p.NPar-1) // uniform in [2, NPar]
	for b := 0; b < branches; b++ {
		in, out := gen.expand(depth + 1)
		gen.edges = append(gen.edges, [2]int{fork, in}, [2]int{out, join})
	}
	return fork, join
}

func (gen *Generator) wcet() int64 {
	return gen.p.CMin + gen.r.Int63n(gen.p.CMax-gen.p.CMin+1)
}

// HetTask generates a heterogeneous DAG task: a random DAG with one node
// re-designated as the offloaded node vOff whose WCET is set so that COff
// accounts for (approximately) cOffFrac of the total volume vol(G).
// cOffFrac must lie in (0, 1); the realized fraction is returned (rounding
// to integer WCETs and the COff ≥ 1 floor make it inexact at the extremes).
func (gen *Generator) HetTask(cOffFrac float64) (g *dag.Graph, vOff int, realized float64, err error) {
	if cOffFrac <= 0 || cOffFrac >= 1 {
		return nil, 0, 0, fmt.Errorf("taskgen: cOffFrac %v outside (0,1)", cOffFrac)
	}
	g, err = gen.Graph()
	if err != nil {
		return nil, 0, 0, err
	}
	vOff = gen.r.Intn(g.NumNodes())
	realized = SetOffload(g, vOff, cOffFrac)
	return g, vOff, realized, nil
}

// SetOffload marks node id of g as the offloaded node and rescales its WCET
// so that it represents frac of the resulting total volume:
//
//	COff / (restVolume + COff) = frac  ⇒  COff = frac·rest/(1−frac)
//
// COff is rounded to the nearest positive integer. The realized fraction is
// returned.
func SetOffload(g *dag.Graph, id int, frac float64) (realized float64) {
	rest := g.Volume() - g.WCET(id)
	cOff := int64(frac*float64(rest)/(1-frac) + 0.5)
	if cOff < 1 {
		cOff = 1
	}
	g.SetKind(id, dag.Offload)
	g.SetWCET(id, cOff)
	g.SetName(id, "vOff")
	return float64(cOff) / float64(rest+cOff)
}

// SetOffloadClass is SetOffload targeting a specific device class (≥ 1):
// the node is marked Offload on class `class` with a WCET equal to frac of
// the resulting volume. The realized fraction is returned.
func SetOffloadClass(g *dag.Graph, id int, frac float64, class int) (realized float64) {
	realized = SetOffload(g, id, frac)
	if class > 1 {
		g.SetClass(id, class)
	}
	return realized
}

// MultiHetTask generates a DAG task with k offloaded nodes spread
// round-robin over `classes` device classes (classes 1..classes), each
// carrying approximately frac/k of the task volume, so the total offloaded
// fraction approaches frac. The offload node IDs are returned in the order
// they were assigned, and the realized total fraction is reported.
// k must not exceed the generated node count; classes must be ≥ 1.
func (gen *Generator) MultiHetTask(k int, frac float64, classes int) (g *dag.Graph, offs []int, realized float64, err error) {
	if k < 1 {
		return nil, nil, 0, fmt.Errorf("taskgen: MultiHetTask k %d < 1", k)
	}
	if classes < 1 {
		return nil, nil, 0, fmt.Errorf("taskgen: MultiHetTask classes %d < 1", classes)
	}
	if frac <= 0 || frac >= 1 {
		return nil, nil, 0, fmt.Errorf("taskgen: MultiHetTask frac %v outside (0,1)", frac)
	}
	g, err = gen.Graph()
	if err != nil {
		return nil, nil, 0, err
	}
	n := g.NumNodes()
	if k > n {
		return nil, nil, 0, fmt.Errorf("taskgen: MultiHetTask k %d exceeds node count %d", k, n)
	}
	// k distinct nodes via a partial Fisher–Yates over the ID range.
	perm := gen.r.Perm(n)
	offs = append([]int(nil), perm[:k]...)
	per := frac / float64(k)
	for i, id := range offs {
		SetOffloadClass(g, id, per, 1+i%classes)
		g.SetName(id, fmt.Sprintf("vOff%d", i+1))
	}
	var cOff int64
	for _, id := range offs {
		cOff += g.WCET(id)
	}
	if v := g.Volume(); v > 0 {
		realized = float64(cOff) / float64(v)
	}
	return g, offs, realized, nil
}

// UUniFast draws n utilizations summing to total, each split per the
// classic unbiased algorithm of Bini & Buttazzo (2005). The result is in
// draw order (not sorted); callers pairing it with generated DAGs get an
// unbiased utilization per task. The sporadic-taskset builder
// (internal/taskset.Generate) combines it with Graph to produce whole
// tasksets from one seed.
func (gen *Generator) UUniFast(n int, total float64) []float64 {
	if n < 1 {
		return nil
	}
	us := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(gen.r.Float64(), 1/float64(n-i-1))
		us[i] = sum - next
		sum = next
	}
	us[n-1] = sum
	return us
}

// Intn draws a uniform int in [0, n) from the generator's random stream.
// The sporadic-taskset builder uses it to pick offload sites, so a whole
// taskset — structure, utilizations, offload placement — derives from one
// seed.
func (gen *Generator) Intn(n int) int { return gen.r.Intn(n) }
