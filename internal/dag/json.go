package dag

import (
	"encoding/json"
	"fmt"
	"slices"
)

// JSON interchange format. The schema is deliberately simple so task graphs
// can be produced by external tools (e.g. an OpenMP compiler pass as in
// Vargas et al., ASP-DAC 2016) and fed to cmd/dagrta:
//
//	{
//	  "nodes": [{"name": "v1", "wcet": 3, "kind": "host"}, ...],
//	  "edges": [[0, 1], [0, 2], ...]
//	}
//
// Decoding has two front ends that share one builder. The canonical
// scanner (scan.go) parses the form MarshalJSON emits in a single pass;
// anything else falls back to encoding/json into
// jsonGraph, which defines the semantics and the error text for every
// input the scanner declines. Both hand their nodes to decodeNode and their
// edges to setDecoded, so the two cannot disagree on what a graph means.

type jsonNode struct {
	Name string `json:"name,omitempty"`
	WCET int64  `json:"wcet"`
	Kind string `json:"kind,omitempty"`
	// Class is the resource-class index for offload nodes. Omitted for the
	// default (host nodes, and offload nodes on the first device class), so
	// single-accelerator task files are unchanged.
	Class int `json:"class,omitempty"`
}

type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges [][2]int   `json:"edges"`
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{
		Nodes: make([]jsonNode, g.NumNodes()),
		Edges: g.Edges(),
	}
	for i := range g.nodes {
		jg.Nodes[i] = jsonNode{
			Name: g.nodes[i].Name,
			WCET: g.nodes[i].WCET,
			Kind: g.nodes[i].Kind.String(),
		}
		if g.nodes[i].Class > 1 {
			jg.Nodes[i].Class = g.nodes[i].Class
		}
	}
	return json.Marshal(jg)
}

// UnmarshalJSON implements json.Unmarshaler. On error g is left unchanged.
func (g *Graph) UnmarshalJSON(data []byte) error {
	if ok, err := scanCanonical(data, g); ok {
		return err
	}
	return g.unmarshalReference(data)
}

// unmarshalReference is the encoding/json decoding path.
func (g *Graph) unmarshalReference(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("dag: decoding graph: %w", err)
	}
	nodes := make([]Node, len(jg.Nodes))
	for i, n := range jg.Nodes {
		var err error
		if nodes[i], err = decodeNode(i, n.Name, n.WCET, n.Kind, n.Class); err != nil {
			return err
		}
	}
	return g.setDecoded(nodes, jg.Edges)
}

// Decode parses one graph in the JSON interchange format. It returns the
// same graph and the same error as json.Unmarshal(data, g) into a new
// Graph, but canonical input (see scanCanonical) skips encoding/json
// entirely, including the validation pass json.Unmarshal makes over the
// whole input before calling UnmarshalJSON. Serving front ends call it on
// every request body.
func Decode(data []byte) (*Graph, error) {
	g := New()
	ok, err := scanCanonical(data, g)
	if !ok {
		err = json.Unmarshal(data, g)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// decodeNode applies the schema's node rules to node i: kind is "host"
// (or empty), "offload" or "sync"; class 0 means the default (the host
// class, or device class 1 for an offload node); any other class needs an
// offload node and must be ≥ 1.
func decodeNode(i int, name string, wcet int64, kind string, class int) (Node, error) {
	n := Node{ID: i, Name: name, WCET: wcet}
	switch kind {
	case "", "host":
		n.Kind = Host
	case "offload":
		n.Kind, n.Class = Offload, 1
	case "sync":
		n.Kind = Sync
	default:
		return Node{}, fmt.Errorf("dag: node %d: unknown kind %q", i, kind)
	}
	if class != 0 {
		if n.Kind != Offload {
			return Node{}, fmt.Errorf("dag: node %d: class %d on %s node (only offload nodes carry a device class)", i, class, n.Kind)
		}
		if class < 1 {
			return Node{}, fmt.Errorf("dag: node %d: invalid class %d", i, class)
		}
		n.Class = class
	}
	return n, nil
}

// setDecoded replaces g's contents with decoded nodes and an edge list in
// input order, with AddEdge's rules: the first out-of-range edge or
// self-loop is the error, and duplicate edges collapse. The edges are
// bucketed by source, then each row is sorted and deduplicated, so the
// build is O((V+E) log E) however the edges are ordered; inserting them one
// by one into sorted rows is quadratic in a row's length. It takes
// ownership of nodes, and leaves g unchanged on error.
func (g *Graph) setDecoded(nodes []Node, edges [][2]int) error {
	n := len(nodes)
	for _, e := range edges {
		if err := checkEdge(e[0], e[1], n); err != nil {
			return err
		}
	}
	// One allocation holds the row offsets, the successor rows and the
	// predecessor rows. The successors are counting-sorted by source node:
	// end[u] starts as row u's offset in flat and ends one past its last
	// slot.
	m := len(edges)
	ints := make([]int, n+1+2*m)
	end, flat, predBack := ints[:n+1], ints[n+1:n+1+m], ints[n+1+m:]
	for _, e := range edges {
		end[e[0]+1]++
	}
	for u := 1; u <= n; u++ {
		end[u] += end[u-1]
	}
	for _, e := range edges {
		flat[end[e[0]]] = e[1]
		end[e[0]]++
	}
	rows := make([][]int, 2*n)
	succs := rows[:n:n]
	total, start := 0, 0
	for u := range n {
		row := flat[start:end[u]]
		start = end[u]
		if len(row) == 0 {
			continue
		}
		slices.Sort(row)
		row = slices.Compact(row)
		succs[u] = row[:len(row):len(row)]
		total += len(row)
	}
	g.pack(nodes, succs, rows[n:], predBack[:total], end)
	return nil
}
