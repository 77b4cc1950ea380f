package exact

import (
	"context"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/taskgen"
)

// countingCtx is a context whose Err() starts returning context.Canceled
// after errAfter calls, and counts every poll. It lets the tests pin down
// exactly how often the branch-and-bound consults the context.
type countingCtx struct {
	calls    int
	errAfter int
}

func (c *countingCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countingCtx) Done() <-chan struct{}       { return nil }
func (c *countingCtx) Value(any) any               { return nil }
func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.errAfter {
		return context.Canceled
	}
	return nil
}

// hardInstance returns a generator for a task whose restricted search
// needs tens of thousands of expansions (same seed as the ablation
// benchmark).
func hardInstance(t testing.TB) *taskgen.Generator {
	t.Helper()
	return taskgen.MustNew(taskgen.Small(10, 16), 6)
}

func TestCancellationAbortsWithinPollInterval(t *testing.T) {
	g, _, _, err := hardInstance(t).HetTask(0.15)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: uncancelled, the instance needs a long search.
	full, err := MinMakespan(context.Background(), g, platform.Hetero(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Expansions < 10_000 {
		t.Fatalf("instance too easy for the cancellation test: %d expansions", full.Expansions)
	}

	const every = 128
	// Let the context survive the entry check plus two in-search polls,
	// then cancel. The search is deterministic, so the number of Err calls
	// until abort is exact: one at entry, then one per `every` expansions
	// until the first failing poll aborts the dfs.
	ctx := &countingCtx{errAfter: 3}
	res, err := MinMakespan(ctx, g, platform.Hetero(2), Options{CtxCheckEvery: every})
	if err != context.Canceled {
		t.Fatalf("err = %v (result %+v), want context.Canceled", err, res)
	}
	if res != nil {
		t.Fatalf("partial result %+v returned alongside cancellation", res)
	}
	if ctx.calls != 4 {
		t.Fatalf("context polled %d times, want exactly 4 (entry + 3 in-search)", ctx.calls)
	}
	// Polled every `every` expansions and aborted at the first failing
	// poll ⇒ the search expanded at most 3*every nodes, far below the full
	// search. This is the bounded-abort guarantee.
	if maxExpanded := int64(3 * every); full.Expansions <= maxExpanded {
		t.Fatalf("bound vacuous: full search needed only %d expansions", full.Expansions)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	g, _, _, err := hardInstance(t).HetTask(0.15)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinMakespan(ctx, g, platform.Hetero(2), Options{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled at entry", err)
	}
}

func TestDefaultCtxCheckEvery(t *testing.T) {
	g, _, _, err := hardInstance(t).HetTask(0.15)
	if err != nil {
		t.Fatal(err)
	}
	// With the default interval, a context cancelled right after entry
	// still aborts the search (within DefaultCtxCheckEvery expansions).
	ctx := &countingCtx{errAfter: 1}
	if _, err := MinMakespan(ctx, g, platform.Hetero(2), Options{}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled under default poll interval", err)
	}
	if ctx.calls != 2 {
		t.Fatalf("context polled %d times, want 2 (entry + first in-search poll)", ctx.calls)
	}
}
