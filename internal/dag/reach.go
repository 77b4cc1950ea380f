package dag

import (
	"iter"
	"math/bits"
)

// Reachability helpers. The paper's Algorithm 1 uses Pred(vOff) — the set of
// nodes from which vOff can be reached — and Succ(vOff) — the set of nodes
// reachable from vOff. We call these Ancestors and Descendants to avoid
// confusion with the direct-neighbour accessors Preds/Succs.

// Ancestors returns the set of nodes from which id can be reached via one or
// more edges (the paper's Pred(v)). id itself is not included.
func (g *Graph) Ancestors(id int) NodeSet {
	set := NewNodeSetWithMax(g.NumNodes())
	stack := make([]int, 0, len(g.preds[id])+8)
	stack = append(stack, g.preds[id]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if set.Contains(u) {
			continue
		}
		set.Add(u)
		stack = append(stack, g.preds[u]...)
	}
	return set
}

// Descendants returns the set of nodes reachable from id via one or more
// edges (the paper's Succ(v)). id itself is not included.
func (g *Graph) Descendants(id int) NodeSet {
	set := NewNodeSetWithMax(g.NumNodes())
	stack := make([]int, 0, len(g.succs[id])+8)
	stack = append(stack, g.succs[id]...)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if set.Contains(u) {
			continue
		}
		set.Add(u)
		stack = append(stack, g.succs[u]...)
	}
	return set
}

// Reaches reports whether v is reachable from u via one or more edges.
func (g *Graph) Reaches(u, v int) bool {
	if u == v {
		return false
	}
	seen := NewNodeSetWithMax(g.NumNodes())
	stack := make([]int, 0, len(g.succs[u])+8)
	stack = append(stack, g.succs[u]...)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if w == v {
			return true
		}
		if seen.Contains(w) {
			continue
		}
		seen.Add(w)
		stack = append(stack, g.succs[w]...)
	}
	return false
}

// ParallelNodes returns the set of nodes neither reaching nor reachable from
// id — the nodes that may execute in parallel with id. id is excluded. This
// is the vertex set of the paper's GPar when id = vOff.
func (g *Graph) ParallelNodes(id int) NodeSet {
	anc := g.Ancestors(id)
	desc := g.Descendants(id)
	n := g.NumNodes()
	set := NewNodeSetWithMax(n)
	// Complement of anc ∪ desc ∪ {id}, word-wise.
	for w := range set.words {
		set.words[w] = ^(anc.words[w] | desc.words[w])
	}
	set.words[id>>6] &^= 1 << uint(id&63)
	// Clear the tail bits beyond n-1.
	if tail := n & 63; tail != 0 {
		set.words[len(set.words)-1] &= (1 << uint(tail)) - 1
	}
	return set
}

// NodeSet is a set of node IDs, stored as a dense bitset ([]uint64 words,
// bit id%64 of word id/64). The zero value is an empty set; Add grows the
// word slice on demand, with no upper limit on IDs.
//
// Mutators (Add, Remove) take a pointer receiver. Copying a NodeSet value
// shares the underlying words only until a mutation grows the word slice,
// after which the copies are silently independent — so treat a copied
// value as read-only, and use Clone when an independent mutable set is
// needed.
type NodeSet struct {
	words []uint64
}

// NewNodeSet builds a set from the given IDs.
func NewNodeSet(ids ...int) NodeSet {
	var s NodeSet
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// NewNodeSetWithMax returns an empty set pre-sized to hold IDs in [0, n)
// without further allocation.
func NewNodeSetWithMax(n int) NodeSet {
	return NodeSet{words: make([]uint64, (n+63)>>6)}
}

// Add inserts id into the set. It panics on negative IDs.
func (s *NodeSet) Add(id int) {
	w := id >> 6
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	s.words[w] |= 1 << uint(id&63)
}

// Remove deletes id from the set.
func (s *NodeSet) Remove(id int) {
	w := id >> 6
	if id >= 0 && w < len(s.words) {
		s.words[w] &^= 1 << uint(id&63)
	}
}

// Contains reports whether id is in the set.
func (s NodeSet) Contains(id int) bool {
	w := id >> 6
	return id >= 0 && w < len(s.words) && s.words[w]&(1<<uint(id&63)) != 0
}

// Len returns the cardinality of the set.
func (s NodeSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union returns a new set holding s ∪ t.
func (s NodeSet) Union(t NodeSet) NodeSet {
	u := NodeSet{words: make([]uint64, max(len(s.words), len(t.words)))}
	copy(u.words, s.words)
	for i, w := range t.words {
		u.words[i] |= w
	}
	return u
}

// Clone returns an independent copy of the set.
func (s NodeSet) Clone() NodeSet {
	return NodeSet{words: append([]uint64(nil), s.words...)}
}

// All returns an iterator over the members in ascending order.
func (s NodeSet) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for wi, w := range s.words {
			for w != 0 {
				id := wi<<6 + bits.TrailingZeros64(w)
				if !yield(id) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Sorted returns the members in ascending order.
func (s NodeSet) Sorted() []int {
	out := make([]int, 0, s.Len())
	for id := range s.All() {
		out = append(out, id)
	}
	return out
}

// Equal reports whether two sets have identical members.
func (s NodeSet) Equal(t NodeSet) bool {
	long, short := s.words, t.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if w != long[i] {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}
