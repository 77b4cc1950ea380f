package dag

import (
	"bytes"
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
	s := scanner{data: data}
	var (
		nodes              []Node
		edges              [][2]int
		nodeErr            error
		hasNodes, hasEdges bool
	)
	if !s.consume('{') {
		return false, nil
	}
	if !s.consume('}') {
		for {
			key, ok := s.str()
			if !ok || !s.consume(':') {
				return false, nil
			}
			switch string(key) {
			case "nodes":
				if hasNodes {
					return false, nil
				}
				hasNodes = true
				if nodes, nodeErr, ok = s.nodes(); !ok {
					return false, nil
				}
			case "edges":
				if hasEdges {
					return false, nil
				}
				hasEdges = true
				if edges, ok = s.edges(); !ok {
					return false, nil
				}
			default:
				return false, nil
			}
			if s.consume(',') {
				continue
			}
			if s.consume('}') {
				break
			}
			return false, nil
		}
	}
	if s.ws(); s.pos != len(data) {
		return false, nil
	}
	// Only now, with the whole input known to be well-formed, do the
	// model rules speak: encoding/json would report a syntax error
	// anywhere in the input before any of them.
	if nodeErr != nil {
		return true, nodeErr
	}
	return true, g.setDecoded(nodes, edges)
}

// scanner is a cursor over the input. Its methods skip leading whitespace
// and report ok=false on anything outside the canonical form.
type scanner struct {
	data []byte
	pos  int
}

func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume reports whether the next token is the byte c, and steps over it
// if so.
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// str scans a string and returns its contents, which alias the input.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
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

// num64 scans -?(0|[1-9][0-9]*) within the range of an int64, as
// strconv.ParseInt would accept it; -0 is declined.
func (s *scanner) num64() (int64, bool) {
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

// num is num64 within the range of an int.
func (s *scanner) num() (int, bool) {
	v, ok := s.num64()
	return int(v), ok && int64(int(v)) == v
}

// hint estimates the number of array elements ahead that open with the
// byte open and take at least minLen bytes each, as a capacity hint: in
// canonical input every node opens one '{' and every edge one '['. The
// cap keeps input whose strings are full of brackets from reserving more
// than a well-formed input of its length could need.
func (s *scanner) hint(open byte, minLen int) int {
	rest := s.data[s.pos:]
	return min(bytes.Count(rest, []byte{open}), len(rest)/minLen)
}

// nodes scans the node array. The first node that breaks the schema's
// node rules becomes nodeErr, and scanning goes on without collecting
// further nodes: a later syntax error still declines the whole input.
func (s *scanner) nodes() (nodes []Node, nodeErr error, ok bool) {
	if !s.consume('[') {
		return nil, nil, false
	}
	if s.consume(']') {
		return nil, nil, true
	}
	nodes = make([]Node, 0, s.hint('{', 3))
	for i := 0; ; i++ {
		if !s.consume('{') {
			return nil, nil, false
		}
		var (
			name, kind []byte
			wcet       int64
			class      int
			seen       uint8
		)
		if !s.consume('}') {
			for {
				key, ok := s.str()
				if !ok || !s.consume(':') {
					return nil, nil, false
				}
				var bit uint8
				switch string(key) {
				case "name":
					bit = 1
					name, ok = s.str()
				case "wcet":
					bit = 2
					wcet, ok = s.num64()
				case "kind":
					bit = 4
					kind, ok = s.str()
				case "class":
					bit = 8
					class, ok = s.num()
				}
				if !ok || bit == 0 || seen&bit != 0 {
					return nil, nil, false
				}
				seen |= bit
				if s.consume(',') {
					continue
				}
				if s.consume('}') {
					break
				}
				return nil, nil, false
			}
		}
		if nodeErr == nil {
			n, err := decodeNode(i, string(name), wcet, kindName(kind), class)
			nodes, nodeErr = append(nodes, n), err
		}
		if s.consume(',') {
			continue
		}
		if s.consume(']') {
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
func (s *scanner) edges() ([][2]int, bool) {
	if !s.consume('[') {
		return nil, false
	}
	if s.consume(']') {
		return nil, true
	}
	edges := make([][2]int, 0, s.hint('[', 6))
	for {
		if !s.consume('[') {
			return nil, false
		}
		u, ok := s.num()
		if !ok || !s.consume(',') {
			return nil, false
		}
		v, ok := s.num()
		if !ok || !s.consume(']') {
			return nil, false
		}
		edges = append(edges, [2]int{u, v})
		if s.consume(',') {
			continue
		}
		if s.consume(']') {
			return edges, true
		}
		return nil, false
	}
}
