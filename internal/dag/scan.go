package dag

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// scanCanonical decodes data into g in one pass when data is in the
// canonical form of the interchange schema:
//
//   - one object, with nothing but JSON whitespace around it, whose keys
//     are "nodes" and "edges"; each node an object whose keys are "name",
//     "wcet", "kind" and "class"; every key spelled exactly so and present
//     at most once;
//   - strings without escapes, valid UTF-8;
//   - numbers that are integers without fraction or exponent (and not -0)
//     and fit their field;
//   - edges that are exact [u, v] pairs.
//
// Graph.MarshalJSON emits that form for every graph whose names need no
// escaping (encoding/json escapes <, > and &). Outside it,
// scanCanonical returns ok=false having touched nothing, and the caller
// falls back to encoding/json. With ok=true, err is the error the
// encoding/json path returns for data, and g holds the graph when err is
// nil. The form is chosen so that both paths read the same nodes and edges
// from it: encoding/json would fold key case, take the last of duplicate
// keys, ignore unknown fields, replace invalid UTF-8, pad short edges with
// zeros and drop extra elements, none of which the scanner reproduces.
func scanCanonical(data []byte, g *Graph) (ok bool, err error) {
	s := NewScanner(data)
	sg, ok := s.Graph()
	if !ok || !s.End() {
		return false, nil
	}
	return true, sg.build(g)
}

// Scanner is a cursor over a JSON document in canonical form: the graph
// form scanCanonical describes, and envelopes around graphs built from the
// same tokens. Its methods skip leading whitespace and report ok=false on
// anything outside the form, after which the document belongs to
// encoding/json. Envelope decoders (the admission and batch request
// bodies, stored reports) walk their own keys with Consume, Str, Int64,
// Int, Float64 and Bool, scan each graph with Graph, and finish with End.
type Scanner struct {
	data []byte
	pos  int
}

// NewScanner returns a Scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// ScannedGraph is a graph object the Scanner has read but not built. Its
// model error (a node that breaks the schema's node rules, an edge out of
// range, a self-loop) is deferred to Build: encoding/json reports a syntax
// error anywhere in a document before any of them, so a caller builds only
// once the whole document has scanned.
type ScannedGraph struct {
	nodes   []Node
	edges   [][2]int
	nodeErr error
}

// Build returns the graph, or the error encoding/json decoding would return
// for the same object.
func (sg ScannedGraph) Build() (*Graph, error) {
	g := New()
	if err := sg.build(g); err != nil {
		return nil, err
	}
	return g, nil
}

func (sg ScannedGraph) build(g *Graph) error {
	if sg.nodeErr != nil {
		return sg.nodeErr
	}
	return g.setDecoded(sg.nodes, sg.edges)
}

// Graph scans one graph object.
func (s *Scanner) Graph() (sg ScannedGraph, ok bool) {
	var hasNodes, hasEdges bool
	if !s.Consume('{') {
		return sg, false
	}
	if s.Consume('}') {
		return sg, true
	}
	for {
		key, ok := s.Str()
		if !ok || !s.Consume(':') {
			return sg, false
		}
		switch string(key) {
		case "nodes":
			if hasNodes {
				return sg, false
			}
			hasNodes = true
			if sg.nodes, sg.nodeErr, ok = s.nodes(); !ok {
				return sg, false
			}
		case "edges":
			if hasEdges {
				return sg, false
			}
			hasEdges = true
			if sg.edges, ok = s.edges(); !ok {
				return sg, false
			}
		default:
			return sg, false
		}
		if s.Consume(',') {
			continue
		}
		return sg, s.Consume('}')
	}
}

// End reports whether only whitespace is left.
func (s *Scanner) End() bool {
	s.ws()
	return s.pos == len(s.data)
}

func (s *Scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// Consume reports whether the next token is the byte c, and steps over it
// if so.
func (s *Scanner) Consume(c byte) bool {
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// Str scans a string without escapes and returns its contents, which alias
// the input.
func (s *Scanner) Str() ([]byte, bool) {
	if !s.Consume('"') {
		return nil, false
	}
	start, ascii := s.pos, true
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			b := s.data[start:s.pos]
			s.pos++
			return b, ascii || utf8.Valid(b)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// Int64 scans -?(0|[1-9][0-9]*) within the range of an int64, as
// strconv.ParseInt would accept it; -0 is declined.
func (s *Scanner) Int64() (int64, bool) {
	s.ws()
	neg := s.pos < len(s.data) && s.data[s.pos] == '-'
	if neg {
		s.pos++
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	start := s.pos
	var v uint64
	for ; s.pos < len(s.data); s.pos++ {
		c := s.data[s.pos]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (limit-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	switch digits := s.pos - start; {
	case digits == 0, digits > 1 && s.data[start] == '0', neg && v == 0:
		return 0, false
	case neg:
		return -int64(v), true
	}
	return int64(v), true
}

// Float64 scans a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and converts it with strconv.ParseFloat as encoding/json does for a
// float64 field; a literal ParseFloat rejects (out of range) is declined.
func (s *Scanner) Float64() (float64, bool) {
	s.ws()
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	if lead := s.pos; s.digits() == 0 || s.pos-lead > 1 && s.data[lead] == '0' {
		return 0, false
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if s.digits() == 0 {
			return 0, false
		}
	}
	if s.pos < len(s.data) && s.data[s.pos]|0x20 == 'e' {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if s.digits() == 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
	return v, err == nil
}

// digits steps over a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos - start
}

// Bool scans true or false.
func (s *Scanner) Bool() (v, ok bool) {
	s.ws()
	switch rest := s.data[s.pos:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.pos += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.pos += len("false")
		return false, true
	}
	return false, false
}

// Int is Int64 within the range of an int.
func (s *Scanner) Int() (int, bool) {
	v, ok := s.Int64()
	return int(v), ok && int64(int(v)) == v
}

// hint estimates the number of elements left in the array being scanned,
// as a capacity hint, from the elements' opening byte open and their
// minimum length minLen: in canonical input every node opens one '{' and
// every edge one '['. It counts only up to the first byte stop: ']' ends
// the node array, and '}' the graph after its edge array (or the first
// node after it). So the cost follows the array, not the document around
// it; a bracket inside a name only makes the hint low. The minLen cap
// keeps input whose strings are full of brackets from reserving more than
// a well-formed array of its length could need.
func (s *Scanner) hint(open, stop byte, minLen int) int {
	rest := s.data[s.pos:]
	if end := bytes.IndexByte(rest, stop); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{open}), len(rest)/minLen)
}

// nodes scans the node array. The first node that breaks the schema's
// node rules becomes nodeErr, and scanning goes on without collecting
// further nodes: a later syntax error still declines the whole input.
func (s *Scanner) nodes() (nodes []Node, nodeErr error, ok bool) {
	if !s.Consume('[') {
		return nil, nil, false
	}
	if s.Consume(']') {
		return nil, nil, true
	}
	nodes = make([]Node, 0, s.hint('{', ']', 3))
	for i := 0; ; i++ {
		if !s.Consume('{') {
			return nil, nil, false
		}
		var (
			name, kind []byte
			wcet       int64
			class      int
			seen       uint8
		)
		if !s.Consume('}') {
			for {
				key, ok := s.Str()
				if !ok || !s.Consume(':') {
					return nil, nil, false
				}
				var bit uint8
				switch string(key) {
				case "name":
					bit = 1
					name, ok = s.Str()
				case "wcet":
					bit = 2
					wcet, ok = s.Int64()
				case "kind":
					bit = 4
					kind, ok = s.Str()
				case "class":
					bit = 8
					class, ok = s.Int()
				}
				if !ok || bit == 0 || seen&bit != 0 {
					return nil, nil, false
				}
				seen |= bit
				if s.Consume(',') {
					continue
				}
				if s.Consume('}') {
					break
				}
				return nil, nil, false
			}
		}
		if nodeErr == nil {
			n, err := decodeNode(i, string(name), wcet, kindName(kind), class)
			nodes, nodeErr = append(nodes, n), err
		}
		if s.Consume(',') {
			continue
		}
		if s.Consume(']') {
			return nodes, nodeErr, true
		}
		return nil, nil, false
	}
}

// kindName returns kind as a string, without allocating for the kinds the
// schema knows.
func kindName(kind []byte) string {
	switch string(kind) {
	case "host":
		return "host"
	case "offload":
		return "offload"
	case "sync":
		return "sync"
	}
	return string(kind)
}

// edges scans the edge array.
func (s *Scanner) edges() ([][2]int, bool) {
	if !s.Consume('[') {
		return nil, false
	}
	if s.Consume(']') {
		return nil, true
	}
	edges := make([][2]int, 0, s.hint('[', '}', 6))
	for {
		if !s.Consume('[') {
			return nil, false
		}
		u, ok := s.Int()
		if !ok || !s.Consume(',') {
			return nil, false
		}
		v, ok := s.Int()
		if !ok || !s.Consume(']') {
			return nil, false
		}
		edges = append(edges, [2]int{u, v})
		if s.Consume(',') {
			continue
		}
		if s.Consume(']') {
			return edges, true
		}
		return nil, false
	}
}
