package sched

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/dag"
)

// ReadyItem is a dispatchable node in the ready queue.
type ReadyItem struct {
	// Node is the node ID.
	Node int
	// Seq is the global enqueue sequence number: nodes becoming ready
	// earlier (or, at the same event, with smaller IDs) have smaller Seq.
	Seq int
	// ReadyAt is the time the node became ready.
	ReadyAt int64
}

// Policy selects which ready node a free resource runs next. Pick returns
// an index into ready (never empty). Prepare is called once per simulation
// before any Pick, letting policies precompute graph-derived priorities.
type Policy interface {
	Name() string
	Prepare(g *dag.Graph)
	Pick(ready []ReadyItem) int
}

// BreadthFirst is the GOMP-like FIFO policy of Section 5.2: ready tasks are
// dispatched in the order they became ready. This is the policy the paper's
// Figure 6 simulation uses.
func BreadthFirst() Policy { return &seqPolicy{name: "breadth-first", lifo: false} }

// LIFO dispatches the most recently readied node first (a depth-first /
// work-first runtime, e.g. Cilk-style).
func LIFO() Policy { return &seqPolicy{name: "lifo", lifo: true} }

type seqPolicy struct {
	name string
	lifo bool
}

func (p *seqPolicy) Name() string       { return p.name }
func (p *seqPolicy) Prepare(*dag.Graph) {}
func (p *seqPolicy) Pick(r []ReadyItem) int {
	best := 0
	for i := 1; i < len(r); i++ {
		if p.lifo == (r[i].Seq > r[best].Seq) {
			best = i
		}
	}
	return best
}

// CriticalPathFirst prioritizes the node heading the longest remaining
// path (HLF / Hu's heuristic), a strong incumbent source for the exact
// solver. Ties break toward smaller Seq.
func CriticalPathFirst() Policy { return &cpPolicy{} }

type cpPolicy struct{ tail []int64 }

func (p *cpPolicy) Name() string { return "critical-path-first" }
func (p *cpPolicy) Prepare(g *dag.Graph) {
	p.tail = g.LongestToEnd()
}
func (p *cpPolicy) Pick(r []ReadyItem) int {
	best := 0
	for i := 1; i < len(r); i++ {
		ti, tb := p.tail[r[i].Node], p.tail[r[best].Node]
		if ti > tb || (ti == tb && r[i].Seq < r[best].Seq) {
			best = i
		}
	}
	return best
}

// LongestFirst dispatches the ready node with the largest WCET (LPT).
func LongestFirst() Policy { return &wcetPolicy{name: "longest-first", longest: true} }

// ShortestFirst dispatches the ready node with the smallest WCET (SPT).
func ShortestFirst() Policy { return &wcetPolicy{name: "shortest-first", longest: false} }

type wcetPolicy struct {
	name    string
	longest bool
	g       *dag.Graph
}

func (p *wcetPolicy) Name() string         { return p.name }
func (p *wcetPolicy) Prepare(g *dag.Graph) { p.g = g }
func (p *wcetPolicy) Pick(r []ReadyItem) int {
	best := 0
	for i := 1; i < len(r); i++ {
		ci, cb := p.g.WCET(r[i].Node), p.g.WCET(r[best].Node)
		if p.longest == (ci > cb) && ci != cb {
			best = i
		}
	}
	return best
}

// Random picks uniformly among ready nodes using its own deterministic
// stream, the one rand.New(rand.NewSource(seed)) draws; used to sample the
// schedule space (e.g. to exhibit Figure 1(c) worst cases). Seeding a
// math/rand source costs about as much as a whole simulation of a small
// graph, so Prepare replays the stream's head, drawn once per seed and
// shared (see replaySource).
func Random(seed int64) Policy { return &randPolicy{seed: seed} }

type randPolicy struct {
	seed int64
	src  replaySource
	r    *rand.Rand
}

func (p *randPolicy) Name() string { return "random" }
func (p *randPolicy) Prepare(*dag.Graph) {
	p.src.Seed(p.seed)
	if p.r == nil {
		p.r = rand.New(&p.src)
	}
}
func (p *randPolicy) Pick(r []ReadyItem) int { return p.r.Intn(len(r)) }

// streamHead is how many Int63 values of a seed's stream are drawn once
// and replayed: more than a simulation of a graph the exact oracle accepts
// (at most 64 nodes, one draw per dispatch plus rare rejections) uses.
const streamHead = 128

// stream is the head of one seed's source stream. It is immutable once
// published.
type stream struct {
	seed int64
	head [streamHead]int64
}

// streams caches recently used stream heads, direct-mapped by seed, so
// the memory stays bounded however many seeds are drawn from (sched.Sample
// seeds one source per sample); a colliding seed replaces the entry.
var streams [16]atomic.Pointer[stream]

// replaySource is a rand.Source that yields the stream of
// rand.NewSource(seed): the cached head first, then a source advanced past
// the head. The source that draws a head for the cache continues itself,
// so a seed's first user seeds once, as rand.NewSource would.
type replaySource struct {
	head *stream
	pos  int
	tail rand.Source
}

// Seed points the source at the start of seed's stream.
func (s *replaySource) Seed(seed int64) {
	slot := &streams[uint64(seed)%uint64(len(streams))]
	h := slot.Load()
	s.pos, s.tail = 0, nil
	if h == nil || h.seed != seed {
		h = &stream{seed: seed}
		s.tail = rand.NewSource(seed)
		for i := range h.head {
			h.head[i] = s.tail.Int63()
		}
		slot.Store(h)
	}
	s.head = h
}

// Int63 returns the next value of the stream.
func (s *replaySource) Int63() int64 {
	if s.pos < len(s.head.head) {
		v := s.head.head[s.pos]
		s.pos++
		return v
	}
	if s.tail == nil {
		s.tail = rand.NewSource(s.head.seed)
		for range s.head.head {
			s.tail.Int63()
		}
	}
	return s.tail.Int63()
}

// ListOrder dispatches by a fixed priority permutation: prio[v] is the
// priority of node v (smaller = earlier). Used by the exact solver to
// replay list schedules and by tests.
func ListOrder(prio []int) Policy { return &listPolicy{prio: prio} }

type listPolicy struct{ prio []int }

func (p *listPolicy) Name() string       { return "list-order" }
func (p *listPolicy) Prepare(*dag.Graph) {}
func (p *listPolicy) Pick(r []ReadyItem) int {
	best := 0
	for i := 1; i < len(r); i++ {
		if p.prio[r[i].Node] < p.prio[r[best].Node] {
			best = i
		}
	}
	return best
}

// Heuristics returns the portfolio of deterministic policies used to seed
// the exact solver's incumbent and the policy-sensitivity ablation.
func Heuristics() []Policy {
	return []Policy{
		BreadthFirst(),
		LIFO(),
		CriticalPathFirst(),
		LongestFirst(),
		ShortestFirst(),
	}
}
