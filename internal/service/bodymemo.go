package service

import (
	"crypto/sha256"
	"sync"

	"repro/internal/dag"
)

// bodyMemo maps the SHA-256 of a request body to the fingerprint of the
// graph it decodes to, so a byte-identical repeat finds its report without
// decoding or fingerprinting the body. Decoding is deterministic, so an
// entry never goes stale; only capacity removes one.
//
// It holds two generations of at most half the capacity each. Inserts go
// to cur; when cur is full it becomes old, and the previous old is
// dropped. A hit in old moves the body back into cur. So a body hit at
// least once per generation stays, however many one-off bodies (fresh
// relabelings, say) pass through, and the whole memo never holds more
// than its capacity. It is a structure of its own, not a namespace of the
// report cache, so one-off bodies never evict reports.
type bodyMemo struct {
	mu       sync.Mutex
	cur, old map[[sha256.Size]byte]dag.Fingerprint
	genCap   int
}

// newBodyMemo returns a memo of at most capacity entries; below 2 it
// remembers nothing.
func newBodyMemo(capacity int) *bodyMemo {
	return &bodyMemo{cur: make(map[[sha256.Size]byte]dag.Fingerprint), genCap: capacity / 2}
}

// get returns the fingerprint memoized for the body with hash sum.
func (m *bodyMemo) get(sum [sha256.Size]byte) (dag.Fingerprint, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fp, ok := m.cur[sum]; ok {
		return fp, true
	}
	fp, ok := m.old[sum]
	if ok {
		delete(m.old, sum)
		m.addLocked(sum, fp)
	}
	return fp, ok
}

// put records that the body with hash sum decodes to a graph with
// fingerprint fp.
func (m *bodyMemo) put(sum [sha256.Size]byte, fp dag.Fingerprint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addLocked(sum, fp)
}

func (m *bodyMemo) addLocked(sum [sha256.Size]byte, fp dag.Fingerprint) {
	if m.genCap == 0 {
		return
	}
	if _, ok := m.cur[sum]; !ok && len(m.cur) >= m.genCap {
		m.old = m.cur
		m.cur = make(map[[sha256.Size]byte]dag.Fingerprint)
	}
	m.cur[sum] = fp
}

// len returns the number of memoized bodies.
func (m *bodyMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}
