package dag

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
)

// Fingerprint is a 256-bit canonical content hash of a task graph: two
// graphs that differ only by a permutation of their node IDs (a relabeling)
// have equal fingerprints, while any change to the node contents (WCET,
// kind, resource class, name) or to the edge set changes the fingerprint
// (up to SHA-256 collision). It is the cache key of the serving layer
// (internal/service): isomorphic requests share one cached report.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lower-case hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Fingerprint returns the graph's canonical content hash. The result is
// memoized against the mutation version counter, so repeated calls on an
// unmodified graph are O(1); any mutation invalidates the snapshot exactly
// like the derived-property cache. Safe for concurrent use with the other
// read-only accessors.
//
// Canonicalization is a Weisfeiler–Leman-style color refinement followed by
// a refined Kahn order (ties broken by the canonical positions of already
// placed predecessors), which relabels every practically occurring task
// graph into a unique normal form. Pathological WL-indistinguishable
// non-isomorphic structures could in principle canonicalize differently
// across relabelings — the failure mode is a spurious cache miss, never a
// false hit beyond SHA-256 collision. Cyclic graphs (which Validate
// rejects) still hash deterministically, but without the relabeling
// invariance.
func (g *Graph) Fingerprint() Fingerprint {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.fpValid && g.fpVersion == g.version {
		return g.fp
	}
	fp := g.computeFingerprint()
	g.fp, g.fpVersion, g.fpValid = fp, g.version, true
	return fp
}

// fnv1a is the 64-bit FNV-1a running hash used for refinement labels.
const fnvOffset64 = 14695981039346656037
const fnvPrime64 = 1099511628211

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	h = fnvU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fpScratch is computeFingerprint's working memory: a label buffer, an
// index buffer and the hash input, reused through fpScratchPool so that a
// fingerprint allocates nothing once the pool is warm.
type fpScratch struct {
	labels []uint64
	ints   []int
	buf    []byte
}

var fpScratchPool = sync.Pool{New: func() any { return new(fpScratch) }}

// computeFingerprint canonicalizes the graph and hashes the normal form.
// Caller holds g.mu.
//
//hetrta:hotpath
func (g *Graph) computeFingerprint() Fingerprint {
	n := len(g.nodes)
	sc := fpScratchPool.Get().(*fpScratch)
	defer fpScratchPool.Put(sc)

	// The scratch buffers are cut into slices that never outgrow their
	// capacity: no row has more than maxDeg neighbors.
	maxDeg := 0
	for i := range g.nodes {
		maxDeg = max(maxDeg, len(g.preds[i]), len(g.succs[i]))
	}
	sc.labels = slices.Grow(sc.labels[:0], 3*n+maxDeg)
	lbuf := sc.labels[:3*n+maxDeg]
	labels, next, scratch := lbuf[:n], lbuf[n:2*n], lbuf[2*n:3*n]
	nbr := lbuf[3*n : 3*n : 3*n+maxDeg]
	sc.ints = slices.Grow(sc.ints[:0], 4*n+2*maxDeg)
	ibuf := sc.ints[:4*n+2*maxDeg]
	pos := ibuf[:n] // node ID -> canonical position
	indeg := ibuf[n : 2*n]
	order := ibuf[2*n : 2*n : 3*n]
	ready := ibuf[3*n : 3*n : 4*n]
	pa := ibuf[4*n : 4*n : 4*n+maxDeg] // predecessor-position scratch
	pb := ibuf[4*n+maxDeg : 4*n+maxDeg : 4*n+2*maxDeg]

	// Initial labels: node content plus degrees.
	for i := range g.nodes {
		nd := &g.nodes[i]
		h := fnvU64(fnvOffset64, uint64(nd.WCET))
		h = fnvU64(h, uint64(nd.Kind))
		h = fnvU64(h, uint64(nd.Class))
		h = fnvStr(h, nd.Name)
		h = fnvU64(h, uint64(len(g.preds[i])))
		h = fnvU64(h, uint64(len(g.succs[i])))
		labels[i] = h
	}

	// Color refinement: fold the sorted neighbor labels (both directions)
	// into each node's label until the partition stops refining. On DAGs
	// this converges in O(diameter) rounds; the cap bounds adversarial
	// inputs from the fuzzer.
	distinct := countDistinct(labels, scratch)
	for round := 0; round < n && distinct < n; round++ {
		for i := 0; i < n; i++ {
			h := fnvU64(labels[i], 0x9e3779b97f4a7c15)
			nbr = nbr[:0]
			for _, p := range g.preds[i] {
				nbr = append(nbr, labels[p])
			}
			slices.Sort(nbr)
			for _, v := range nbr {
				h = fnvU64(h, v)
			}
			h = fnvU64(h, 0xdeadbeefcafef00d)
			nbr = nbr[:0]
			for _, s := range g.succs[i] {
				nbr = append(nbr, labels[s])
			}
			slices.Sort(nbr)
			for _, v := range nbr {
				h = fnvU64(h, v)
			}
			next[i] = h
		}
		labels, next = next, labels
		d := countDistinct(labels, scratch)
		if d == distinct {
			break
		}
		distinct = d
	}

	// Refined Kahn order: among ready nodes pick the smallest label; break
	// label ties by the sorted canonical positions of the (already placed)
	// predecessors, which is label-independent; a final ID tie-break only
	// fires between nodes the refinement could not distinguish, which are
	// automorphic in every non-pathological graph, so either choice yields
	// the same normal form.
	for i := 0; i < n; i++ {
		pos[i] = -1
		indeg[i] = len(g.preds[i])
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		best := 0
		pa = predPositions(pa, g.preds[ready[0]], pos)
		for c := 1; c < len(ready); c++ {
			u, v := ready[best], ready[c]
			if labels[v] != labels[u] {
				if labels[v] < labels[u] {
					best = c
					pa = predPositions(pa, g.preds[v], pos)
				}
				continue
			}
			pb = predPositions(pb, g.preds[v], pos)
			if cmp := slices.Compare(pb, pa); cmp < 0 || (cmp == 0 && v < u) {
				best = c
				pa, pb = pb, pa
			}
		}
		u := ready[best]
		ready[best] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		pos[u] = len(order)
		order = append(order, u)
		for _, v := range g.succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	cyclic := len(order) < n
	if cyclic {
		// Deterministic fallback for the nodes on cycles: (label, ID)
		// ascending. Stable, but not relabeling-invariant — cyclic graphs
		// are rejected by Validate and by the serving layer.
		rest := make([]int, 0, n-len(order)) //lint:alloc cyclic graphs fail Validate; only this fallback orders them
		for i := 0; i < n; i++ {
			if pos[i] < 0 {
				rest = append(rest, i)
			}
		}
		//lint:alloc the comparator's captures belong to the cyclic fallback
		slices.SortFunc(rest, func(a, b int) int {
			if c := cmp.Compare(labels[a], labels[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for _, u := range rest {
			pos[u] = len(order)
			order = append(order, u)
		}
	}

	// Hash the normal form: node contents in canonical order, then the
	// edge set as canonical position pairs, all little-endian uint64s
	// except the names' bytes, written into one buffer sized up front.
	size := 8
	if cyclic {
		size += 8
	}
	for i := range g.nodes {
		size += 4*8 + len(g.nodes[i].Name)
	}
	size += 2 * 8 * g.edgeCount
	sc.buf = slices.Grow(sc.buf[:0], size)
	buf := sc.buf
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	if cyclic {
		buf = binary.LittleEndian.AppendUint64(buf, 0xc7c11c) // domain-separate cyclic fallbacks
	}
	for _, u := range order {
		nd := &g.nodes[u]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(nd.WCET))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(nd.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(nd.Class))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(nd.Name)))
		buf = append(buf, nd.Name...)
	}
	succPos := pa[:0]
	for i, u := range order {
		succPos = succPos[:0]
		for _, v := range g.succs[u] {
			succPos = append(succPos, pos[v])
		}
		slices.Sort(succPos)
		for _, p := range succPos {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(i))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
		}
	}
	return sha256.Sum256(buf)
}

// countDistinct returns the number of distinct labels, sorting a copy in
// scratch (len(scratch) ≥ len(labels)).
func countDistinct(labels, scratch []uint64) int {
	s := scratch[:len(labels)]
	copy(s, labels)
	slices.Sort(s)
	d := 0
	for i, l := range s {
		if i == 0 || l != s[i-1] {
			d++
		}
	}
	return d
}

// predPositions returns the sorted canonical positions of preds in buf.
func predPositions(buf, preds, pos []int) []int {
	buf = buf[:0]
	for _, p := range preds {
		buf = append(buf, pos[p])
	}
	slices.Sort(buf)
	return buf
}
