// Package a exercises ctxpoll: it opts in via the directive below, standing
// in for the exact search oracle package of the real module.
//
//hetrta:oracle
package a

import "context"

// Unpolled spins with no poll at all.
func Unpolled(ctx context.Context, n int) int {
	_ = ctx.Err()
	i := 0
	for { // want "unbounded loop without a dominating context poll"
		i++
		if i >= n {
			return i
		}
	}
}

// BranchHidden polls only behind a data-dependent branch: the poll does
// not dominate the loop body, so most iterations never see it.
func BranchHidden(ctx context.Context, work []int) int {
	i, s := 0, 0
	for { // want "unbounded loop without a dominating context poll"
		if s > 100 {
			if ctx.Err() != nil {
				return -1
			}
		}
		if i >= len(work) {
			return s
		}
		s += work[i]
		i++
	}
}

// Polled checks the context on every iteration.
func Polled(ctx context.Context, n int) int {
	i := 0
	for {
		if ctx.Err() != nil {
			return -1
		}
		i++
		if i >= n {
			return i
		}
	}
}

// CounterGated amortizes the poll behind a modulo gate — the idiom the
// exact solver uses (expansions%ctxEvery).
func CounterGated(ctx context.Context, seed int) int {
	n := seed
	steps := 0
	for {
		steps++
		if steps%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return -1
			}
		}
		if n == 1 {
			return steps
		}
		if n%2 == 0 {
			n /= 2
		} else {
			n = 3*n + 1
		}
	}
}

// Selects waits on ctx.Done alongside work.
func Selects(ctx context.Context, ticks <-chan int) int {
	total := 0
	for {
		select {
		case <-ctx.Done():
			return total
		case t := <-ticks:
			total += t
			if total > 100 {
				return total
			}
		}
	}
}

// Delegates hands the context to its callee on every iteration.
func Delegates(ctx context.Context, n int) int {
	total := 0
	for total < n {
		total += step(ctx, total)
	}
	return total
}

func step(ctx context.Context, i int) int {
	if ctx.Err() != nil {
		return -1
	}
	return i + 1
}

// Dropped accepts a context and never touches it.
func Dropped(ctx context.Context, n int) int { // want "drops its context.Context parameter ctx on the floor"
	return n * 2
}

// Blank discards its context by name.
func Blank(_ context.Context, n int) int { // want "discards its context.Context parameter"
	return n + 1
}

// Bounded walks a fixed slice; structurally bounded, annotated.
func Bounded(ctx context.Context, xs []int) int {
	_ = ctx.Err()
	i, s := 0, 0
	for { //lint:polled index advances every iteration and exits at len(xs)
		if i == len(xs) {
			return s
		}
		s += xs[i]
		i++
	}
}
