// Package dag implements the directed-acyclic-graph task model of
// Serrano & Quiñones, "Response-Time Analysis of DAG Tasks Supporting
// Heterogeneous Computing" (DAC 2018), Section 2.
//
// A parallel real-time task is τ = <G, T, D>, where G = (V, E) models the
// parallel execution of the task. Nodes represent sequential jobs with a
// worst-case execution time (WCET); edges represent precedence constraints.
// Exactly one node may be marked as the offloaded node vOff, which executes
// on the accelerator device instead of a host core. The transformation of
// Algorithm 1 additionally introduces zero-WCET synchronization nodes.
//
// Graphs in this package use dense integer node IDs (0..NumNodes-1) and keep
// successor/predecessor adjacency lists sorted, so all traversals are
// deterministic.
package dag

import (
	"fmt"
	"iter"
	"sort"
	"sync"
)

// NodeKind distinguishes where a node executes and why it exists.
type NodeKind uint8

const (
	// Host marks a sequential job executed on one of the m host cores.
	Host NodeKind = iota
	// Offload marks the node vOff executed on the accelerator device.
	Offload
	// Sync marks a zero-WCET synchronization node inserted by the DAG
	// transformation (Algorithm 1). It consumes no resources.
	Sync
)

// String returns the lower-case name of the kind.
func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case Offload:
		return "offload"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Node is a vertex of the task graph: a sequential job characterized by its
// worst-case execution time.
type Node struct {
	// ID is the dense index of the node within its Graph.
	ID int
	// Name is an optional human-readable label (e.g. "v3").
	Name string
	// WCET is the worst-case execution time C_i, a non-negative integer.
	// Only Sync nodes may have WCET zero in paper-conformant graphs.
	WCET int64
	// Kind states whether the node runs on the host, is offloaded, or is a
	// synchronization node.
	Kind NodeKind
	// Class is the platform resource-class index the node executes on:
	// 0 (the host class) for Host and Sync nodes, ≥ 1 (a device class) for
	// Offload nodes. Offload nodes default to class 1, the paper's single
	// accelerator; SetClass targets further device classes.
	Class int
}

// Graph is a directed graph intended to be acyclic. It is the G = (V, E) of
// the paper's system model. The zero value is an empty graph ready for use.
type Graph struct {
	nodes []Node
	succs [][]int
	preds [][]int
	// edgeCount caches the number of directed edges.
	edgeCount int

	// version counts mutations; the derived-property cache (cache.go)
	// snapshots it to detect staleness. Every mutating method calls
	// invalidate.
	version uint64
	// mu guards cache and the fingerprint snapshot, keeping the read-only
	// property accessors safe for concurrent use. Mutators are not safe to
	// run concurrently.
	mu    sync.Mutex
	cache *propCache
	// fp memoizes Fingerprint() (fingerprint.go) at version fpVersion;
	// fpValid distinguishes "never computed" from version 0.
	fp        Fingerprint
	fpVersion uint64
	fpValid   bool
}

// invalidate marks every cached derived property stale. Called by all
// mutating methods; the next property query recomputes.
func (g *Graph) invalidate() { g.version++ }

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.edgeCount }

// Node returns a copy of the node with the given ID. It panics if id is out
// of range, mirroring slice indexing semantics.
func (g *Graph) Node(id int) Node { return g.nodes[id] }

// Nodes returns a copy of the node slice in ID order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// WCET returns the worst-case execution time of node id.
func (g *Graph) WCET(id int) int64 { return g.nodes[id].WCET }

// Kind returns the kind of node id.
func (g *Graph) Kind(id int) NodeKind { return g.nodes[id].Kind }

// Class returns the resource-class index of node id: 0 for Host and Sync
// nodes, the device-class index (≥ 1) for Offload nodes.
func (g *Graph) Class(id int) int { return g.nodes[id].Class }

// Name returns the name of node id, synthesizing "v<id+1>" when unnamed so
// printed output matches the paper's v1..vn convention.
func (g *Graph) Name(id int) string {
	if n := g.nodes[id].Name; n != "" {
		return n
	}
	return fmt.Sprintf("v%d", id+1)
}

// SetWCET updates the WCET of node id.
func (g *Graph) SetWCET(id int, wcet int64) {
	g.invalidate()
	g.nodes[id].WCET = wcet
}

// SetKind updates the kind of node id, keeping the resource class
// consistent: non-Offload nodes land in the host class, Offload nodes keep
// their device class (defaulting to class 1).
func (g *Graph) SetKind(id int, kind NodeKind) {
	g.invalidate()
	g.nodes[id].Kind = kind
	switch {
	case kind != Offload:
		g.nodes[id].Class = 0
	case g.nodes[id].Class < 1:
		g.nodes[id].Class = 1
	}
}

// SetClass assigns node id to platform resource class class: 0 makes it a
// Host node, ≥ 1 an Offload node of that device class. Sync nodes cannot be
// re-classed (they consume no resource); SetClass panics on them, mirroring
// the out-of-range panics of the other setters.
func (g *Graph) SetClass(id int, class int) {
	if class < 0 {
		panic(fmt.Sprintf("dag: SetClass(%d, %d): negative class", id, class))
	}
	if g.nodes[id].Kind == Sync {
		panic(fmt.Sprintf("dag: SetClass on sync node %d", id))
	}
	g.invalidate()
	g.nodes[id].Class = class
	if class == 0 {
		g.nodes[id].Kind = Host
	} else {
		g.nodes[id].Kind = Offload
	}
}

// SetName updates the name of node id.
func (g *Graph) SetName(id int, name string) {
	g.invalidate()
	g.nodes[id].Name = name
}

// AddNode appends a node and returns its ID. Offload nodes land in device
// class 1 (the paper's single accelerator); use SetClass for other classes.
func (g *Graph) AddNode(name string, wcet int64, kind NodeKind) int {
	g.invalidate()
	id := len(g.nodes)
	class := 0
	if kind == Offload {
		class = 1
	}
	g.nodes = append(g.nodes, Node{ID: id, Name: name, WCET: wcet, Kind: kind, Class: class})
	// Regrowing after Reset recycles the old adjacency rows (truncated, but
	// keeping their capacity) instead of allocating fresh ones.
	if id < cap(g.succs) {
		g.succs = g.succs[:id+1]
		g.succs[id] = g.succs[id][:0]
	} else {
		g.succs = append(g.succs, nil)
	}
	if id < cap(g.preds) {
		g.preds = g.preds[:id+1]
		g.preds[id] = g.preds[id][:0]
	} else {
		g.preds = append(g.preds, nil)
	}
	return id
}

// Reset truncates g to an empty graph while retaining all allocated
// capacity, including the per-node adjacency rows. Generate-and-retry loops
// (e.g. the random task generator) reuse one graph across attempts so the
// discarded attempts cost no allocations. Must not be called on graphs
// whose adjacency may be shared (FromAdjacency rows are capacity-capped, so
// regrowth never writes into a sibling row).
func (g *Graph) Reset() {
	g.invalidate()
	g.nodes = g.nodes[:0]
	g.succs = g.succs[:0]
	g.preds = g.preds[:0]
	g.edgeCount = 0
}

// AddEdge inserts the precedence constraint (u, v): u must complete before v
// may start. Self-loops and out-of-range IDs are rejected; duplicate edges
// are ignored. AddEdge does not check acyclicity — use Validate or
// IsAcyclic after construction.
func (g *Graph) AddEdge(u, v int) error {
	if err := checkEdge(u, v, len(g.nodes)); err != nil {
		return err
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.invalidate()
	g.succs[u] = insertSorted(g.succs[u], v)
	g.preds[v] = insertSorted(g.preds[v], u)
	g.edgeCount++
	return nil
}

// checkEdge rejects an edge (u, v) that is out of range for n nodes or a
// self-loop.
func checkEdge(u, v, n int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("dag: self-loop on node %d", u)
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for hand-built
// graphs in tests and examples where the IDs are known constants.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge (u, v) if present and reports whether it was.
func (g *Graph) RemoveEdge(u, v int) bool {
	if u < 0 || u >= len(g.nodes) || v < 0 || v >= len(g.nodes) {
		return false
	}
	s, ok := removeSorted(g.succs[u], v)
	if !ok {
		return false
	}
	g.invalidate()
	g.succs[u] = s
	g.preds[v], _ = removeSorted(g.preds[v], u)
	g.edgeCount--
	return true
}

// HasEdge reports whether the edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.nodes) {
		return false
	}
	return containsSorted(g.succs[u], v)
}

// Succs returns the direct successors of node id in ascending ID order.
// The returned slice must not be modified.
func (g *Graph) Succs(id int) []int { return g.succs[id] }

// Preds returns the direct predecessors of node id in ascending ID order.
// The returned slice must not be modified.
func (g *Graph) Preds(id int) []int { return g.preds[id] }

// OutDegree returns the number of direct successors of id.
func (g *Graph) OutDegree(id int) int { return len(g.succs[id]) }

// InDegree returns the number of direct predecessors of id.
func (g *Graph) InDegree(id int) int { return len(g.preds[id]) }

// Edges returns every directed edge as a (u, v) pair, ordered by u then v.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edgeCount)
	for u := range g.succs {
		for _, v := range g.succs[u] {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// EachNode returns an iterator over the nodes in ID order. Unlike Nodes it
// does not copy the node slice, so it is the right choice for hot loops:
//
//	for n := range g.EachNode() { ... }
//
// The graph must not be mutated during iteration.
func (g *Graph) EachNode() iter.Seq[Node] {
	return func(yield func(Node) bool) {
		for _, n := range g.nodes {
			if !yield(n) {
				return
			}
		}
	}
}

// EachEdge returns an iterator over every directed edge (u, v), ordered by
// u then v. Unlike Edges it allocates nothing:
//
//	for u, v := range g.EachEdge() { ... }
//
// The graph must not be mutated during iteration.
func (g *Graph) EachEdge() iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for u := range g.succs {
			for _, v := range g.succs[u] {
				if !yield(u, v) {
					return
				}
			}
		}
	}
}

// Sources returns all nodes with no incoming edges, in ID order.
func (g *Graph) Sources() []int {
	var out []int
	for id := range g.nodes {
		if len(g.preds[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns all nodes with no outgoing edges, in ID order.
func (g *Graph) Sinks() []int {
	var out []int
	for id := range g.nodes {
		if len(g.succs[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// OffloadNode returns the ID of the unique Offload node, or ok=false when
// the graph is fully homogeneous. If several nodes are marked Offload (which
// Validate rejects) the lowest ID is returned.
func (g *Graph) OffloadNode() (id int, ok bool) {
	for i := range g.nodes {
		if g.nodes[i].Kind == Offload {
			return i, true
		}
	}
	return 0, false
}

// OffloadNodes returns the IDs of all Offload nodes in ID order. The paper's
// model has exactly one; the multi-offload extension uses several.
func (g *Graph) OffloadNodes() []int {
	var out []int
	for i := range g.nodes {
		if g.nodes[i].Kind == Offload {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a deep copy of the graph. Like FromAdjacency and the
// decoder, it packs every adjacency row into one backing array, each row
// capacity-capped so that AddEdge regrowing one row never writes into a
// sibling: a clone costs four allocations whatever its size.
func (g *Graph) Clone() *Graph {
	n := len(g.nodes)
	nodes := make([]Node, n)
	copy(nodes, g.nodes)
	total := 0
	for u := range n {
		total += len(g.succs[u]) + len(g.preds[u])
	}
	rows := make([][]int, 2*n)
	back := make([]int, 0, total)
	for u := range n {
		for r, row := range [2][]int{g.succs[u], g.preds[u]} {
			if len(row) > 0 {
				start := len(back)
				back = append(back, row...)
				rows[r*n+u] = back[start:len(back):len(back)]
			}
		}
	}
	return &Graph{nodes: nodes, succs: rows[:n:n], preds: rows[n:], edgeCount: g.edgeCount}
}

// FromAdjacency builds a graph in one pass from a node slice and per-node
// successor lists. Each succs[u] must be sorted ascending and duplicate-free
// (the invariant AddEdge maintains); node IDs are re-assigned to the slice
// index. Both inputs are copied, with all adjacency packed into one bulk
// allocation, so construction is O(V+E) with O(1) allocations — the
// fast path for algorithms like the DAG transformation that can compute
// their output's full edge set up front instead of cloning and mutating.
func FromAdjacency(nodes []Node, succs [][]int) (*Graph, error) {
	n := len(nodes)
	if len(succs) != n {
		return nil, fmt.Errorf("dag: FromAdjacency: %d nodes but %d successor lists", n, len(succs))
	}
	own := make([]Node, n)
	copy(own, nodes)
	total := 0
	for u, list := range succs {
		own[u].ID = u
		// Normalize the kind↔class invariant the setters maintain.
		switch {
		case own[u].Kind != Offload:
			own[u].Class = 0
		case own[u].Class < 1:
			own[u].Class = 1
		}
		total += len(list)
		prev := -1
		for _, v := range list {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("dag: FromAdjacency: edge (%d,%d) out of range [0,%d)", u, v, n)
			}
			if v == u {
				return nil, fmt.Errorf("dag: FromAdjacency: self-loop on node %d", u)
			}
			if v <= prev {
				return nil, fmt.Errorf("dag: FromAdjacency: successors of %d not sorted/unique at %d", u, v)
			}
			prev = v
		}
	}
	rows := make([][]int, 2*n)
	back := make([]int, 2*total)
	succBack := back[:0:total]
	for u, list := range succs {
		start := len(succBack)
		succBack = append(succBack, list...)
		rows[u] = succBack[start:len(succBack):len(succBack)]
	}
	g := &Graph{}
	g.pack(own, rows[:n:n], rows[n:], back[total:], make([]int, n))
	return g, nil
}

// pack replaces g's contents with nodes and the successor rows succs, and
// derives the predecessor rows. The successor rows must be in range,
// sorted, duplicate-free and capacity-capped, so that AddEdge regrowing one
// row never writes into a sibling. preds (len n) receives the predecessor
// row headers and predBack (len = the edge count) their entries; indeg
// (len ≥ n) is scratch. pack takes ownership of all but indeg.
func (g *Graph) pack(nodes []Node, succs, preds [][]int, predBack, indeg []int) {
	n := len(nodes)
	indeg = indeg[:n]
	clear(indeg)
	for _, list := range succs {
		for _, v := range list {
			indeg[v]++
		}
	}
	off := 0
	for v := range n {
		preds[v] = predBack[off : off : off+indeg[v]]
		off += indeg[v]
	}
	// Appending u ascending keeps every pred list sorted.
	for u, list := range succs {
		for _, v := range list {
			preds[v] = append(preds[v], u)
		}
	}
	g.invalidate()
	g.nodes = nodes
	g.succs = succs
	g.preds = preds[:n:n]
	g.edgeCount = len(predBack)
}

// Equal reports whether g and h have identical node sequences and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.edgeCount != h.edgeCount {
		return false
	}
	for i := range g.nodes {
		if g.nodes[i] != h.nodes[i] {
			return false
		}
		if !equalInts(g.succs[i], h.succs[i]) {
			return false
		}
	}
	return true
}

// String returns a compact single-line description, e.g.
// "dag{n=6 e=7 vol=18 len=8}". It never fails, even on cyclic graphs.
func (g *Graph) String() string {
	if !g.IsAcyclic() {
		return fmt.Sprintf("dag{n=%d e=%d CYCLIC}", g.NumNodes(), g.NumEdges())
	}
	return fmt.Sprintf("dag{n=%d e=%d vol=%d len=%d}",
		g.NumNodes(), g.NumEdges(), g.Volume(), g.CriticalPathLength())
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) ([]int, bool) {
	i := sort.SearchInts(s, v)
	if i >= len(s) || s[i] != v {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

func containsSorted(s []int, v int) bool {
	i := sort.SearchInts(s, v)
	return i < len(s) && s[i] == v
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
