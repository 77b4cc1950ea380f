// Package batch is the shared worker-pool engine behind every concurrent
// fan-out in the toolkit: the facade's Analyzer.AnalyzeBatch and the
// experiment harnesses' per-point sweeps. It runs n index-addressed jobs on
// a bounded pool, which keeps output ordering deterministic by
// construction — workers write only to their own index — regardless of the
// pool size or scheduling.
package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool size used when Run is given workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Run executes fn(ctx, i) for every i in [0, n) on a pool of the given
// number of workers (workers <= 0 means DefaultWorkers; the pool never
// exceeds n). It returns the error of the lowest index that failed with a
// real (non-cancellation) error, so the reported error is deterministic
// under concurrency and induced-cancellation errors from in-flight siblings
// never mask the root cause (cancellation is detected with errors.Is, so
// fn may wrap ctx errors). The first failure — in completion order — also
// cancels the context passed to the remaining jobs, and undispatched jobs
// are skipped; cancellation of the parent ctx is reported when no job
// error outranks it. A panicking job cancels the remaining jobs the same
// way, and once every worker has returned, Run re-panics with the first
// panic's value in the calling goroutine, where the caller's recovery
// (e.g. an HTTP server's per-request handler) can see it.
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var (
		next      atomic.Int64 // the next index to claim
		panicOnce sync.Once
		panicVal  any // recover never yields nil (Go 1.21+)
	)
	call := func(i int) error {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicVal = r })
				cancel()
			}
		}()
		return fn(ctx, i)
	}
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			if err := call(i); err != nil {
				errs[i] = err
				cancel()
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work() // the calling goroutine is the pool's first worker
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}

	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	// Only cancellation (parent or induced) remains; report the parent's
	// view so callers can distinguish external cancellation.
	if err := ctx.Err(); err != nil {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
	}
	return nil
}
