// Package resilience holds the overload-protection primitives of the
// serving layer: a cost-classed concurrency limiter with a bounded wait
// queue (load shedding), a deterministic circuit breaker guarding the
// exact oracle, and a negative cache of known-hard instances. Each
// primitive is clock-free where determinism matters — the breaker and the
// negative cache advance on request counts, not wall time — so overload
// behavior is reproducible in tests.
package resilience

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned by Limiter.Acquire when the wait queue is full:
// the request is shed instead of being accepted into a backlog it would
// only time out in. The HTTP layer maps it to 429 with a Retry-After
// header.
var ErrOverloaded = errors.New("resilience: overloaded, request shed")

// LimiterOptions configure a Limiter.
type LimiterOptions struct {
	// Capacity is the number of concurrently held cost units; <= 0 means
	// 2 x GOMAXPROCS. A request of cost c runs when c units are free;
	// costs are clamped to Capacity so no request is unsatisfiable.
	Capacity int
	// MaxQueue bounds how many acquisitions may wait for capacity; when
	// the queue is full further acquisitions are shed with ErrOverloaded.
	// 0 disables queueing entirely (immediate shed under contention).
	MaxQueue int
	// RetryAfter is the backoff the HTTP layer advertises alongside a
	// shed (Retry-After header); <= 0 means one second. The limiter never
	// sleeps on it — it is advice for clients only.
	RetryAfter time.Duration
}

// Limiter is a cost-classed concurrency limiter: expensive requests
// (taskset admissions) acquire more units than cheap ones, so a flood of
// them cannot starve the instance while accounting is still a single
// counter. Waiters queue FIFO up to MaxQueue; beyond that,
// acquisitions shed immediately. The zero-contention path takes one mutex
// and allocates nothing. A nil *Limiter is valid and never limits.
type Limiter struct {
	mu       sync.Mutex
	capacity int64
	inUse    int64
	maxQueue int
	queueLen int
	head     *waiter
	tail     *waiter

	retryAfter time.Duration

	admitted atomic.Uint64
	queued   atomic.Uint64
	shed     atomic.Uint64
}

// waiter is one queued acquisition. granted is written under the limiter
// mutex before ready is closed, so a cancelled waiter can tell whether it
// must release what it was handed.
type waiter struct {
	cost    int64
	ready   chan struct{}
	next    *waiter
	granted bool
}

// NewLimiter builds a limiter from opts.
func NewLimiter(opts LimiterOptions) *Limiter {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 2 * runtime.GOMAXPROCS(0)
	}
	maxQueue := opts.MaxQueue
	if maxQueue < 0 {
		maxQueue = 0
	}
	retryAfter := opts.RetryAfter
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &Limiter{
		capacity:   int64(capacity),
		maxQueue:   maxQueue,
		retryAfter: retryAfter,
	}
}

// clamp bounds a requested cost to [1, capacity].
func (l *Limiter) clamp(cost int64) int64 {
	if cost < 1 {
		cost = 1
	}
	if cost > l.capacity {
		cost = l.capacity
	}
	return cost
}

// Acquire obtains cost units, waiting in the bounded queue when the
// limiter is saturated. It returns nil when the units are held,
// ErrOverloaded when the queue is full (the caller should shed the
// request), or ctx's error when the caller's context ends first. The
// uncontended path is allocation-free.
//
//hetrta:hotpath
func (l *Limiter) Acquire(ctx context.Context, cost int64) error {
	if l == nil {
		return nil
	}
	cost = l.clamp(cost)
	l.mu.Lock()
	// FIFO fairness: even if cost units are free, queued waiters go first.
	if l.head == nil && l.inUse+cost <= l.capacity {
		l.inUse += cost
		l.mu.Unlock()
		l.admitted.Add(1)
		return nil
	}
	if l.queueLen >= l.maxQueue {
		l.mu.Unlock()
		l.shed.Add(1)
		return ErrOverloaded
	}
	return l.acquireSlow(ctx, cost)
}

// acquireSlow enqueues a waiter and blocks; called with l.mu held.
func (l *Limiter) acquireSlow(ctx context.Context, cost int64) error {
	w := &waiter{cost: cost, ready: make(chan struct{})}
	if l.tail == nil {
		l.head, l.tail = w, w
	} else {
		l.tail.next = w
		l.tail = w
	}
	l.queueLen++
	l.mu.Unlock()
	l.queued.Add(1)

	select {
	case <-w.ready:
		l.admitted.Add(1)
		return nil
	case <-ctx.Done():
	}
	l.mu.Lock()
	if w.granted {
		// The grant raced the cancellation; give the units straight back.
		l.inUse -= cost
		l.grantLocked()
		l.mu.Unlock()
		return ctx.Err()
	}
	l.removeLocked(w)
	l.mu.Unlock()
	return ctx.Err()
}

// removeLocked unlinks a cancelled waiter from the queue.
func (l *Limiter) removeLocked(w *waiter) {
	var prev *waiter
	for cur := l.head; cur != nil; cur = cur.next {
		if cur == w {
			if prev == nil {
				l.head = cur.next
			} else {
				prev.next = cur.next
			}
			if l.tail == cur {
				l.tail = prev
			}
			l.queueLen--
			return
		}
		prev = cur
	}
}

// grantLocked hands freed units to queued waiters in FIFO order.
func (l *Limiter) grantLocked() {
	for l.head != nil && l.inUse+l.head.cost <= l.capacity {
		w := l.head
		l.head = w.next
		if l.head == nil {
			l.tail = nil
		}
		l.queueLen--
		l.inUse += w.cost
		w.granted = true
		close(w.ready)
	}
}

// Release returns cost units (the same cost passed to the matching
// Acquire) and wakes queued waiters the freed capacity now fits.
//
//hetrta:hotpath
func (l *Limiter) Release(cost int64) {
	if l == nil {
		return
	}
	cost = l.clamp(cost)
	l.mu.Lock()
	l.inUse -= cost
	if l.inUse < 0 { // defensive: an unmatched Release must not wedge accounting
		l.inUse = 0
	}
	l.grantLocked()
	l.mu.Unlock()
}

// RetryAfter is the client backoff advertised with sheds.
func (l *Limiter) RetryAfter() time.Duration {
	if l == nil {
		return 0
	}
	return l.retryAfter
}

// Saturated reports whether the limiter can accept no further work at all:
// every cost unit is held and the wait queue is full. /readyz uses it to
// signal load balancers away.
func (l *Limiter) Saturated() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inUse >= l.capacity && l.queueLen >= l.maxQueue
}

// LimiterStats is a point-in-time snapshot of the limiter counters.
type LimiterStats struct {
	// Capacity and InUse are the configured and currently held cost units.
	Capacity int64 `json:"capacity"`
	InUse    int64 `json:"inUse"`
	// QueueDepth is the number of acquisitions currently waiting;
	// MaxQueue its bound.
	QueueDepth int `json:"queueDepth"`
	MaxQueue   int `json:"maxQueue"`
	// Admitted counts successful acquisitions, Queued the subset that
	// waited, Shed the acquisitions rejected with ErrOverloaded.
	Admitted uint64 `json:"admitted"`
	Queued   uint64 `json:"queued"`
	Shed     uint64 `json:"shed"`
}

// Stats returns a snapshot of the limiter counters. Nil-safe (zero value).
func (l *Limiter) Stats() LimiterStats {
	if l == nil {
		return LimiterStats{}
	}
	l.mu.Lock()
	st := LimiterStats{
		Capacity:   l.capacity,
		InUse:      l.inUse,
		QueueDepth: l.queueLen,
		MaxQueue:   l.maxQueue,
	}
	l.mu.Unlock()
	st.Admitted = l.admitted.Load()
	st.Queued = l.queued.Load()
	st.Shed = l.shed.Load()
	return st
}
