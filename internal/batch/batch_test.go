package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		counts := make([]int32, n)
		err := Run(context.Background(), n, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunDeterministicOutputOrder(t *testing.T) {
	// Workers write only to their own slot: the assembled output must be
	// identical across pool sizes even though completion order scrambles.
	mk := func(workers int) []string {
		out := make([]string, 50)
		err := Run(context.Background(), len(out), workers, func(_ context.Context, i int) error {
			time.Sleep(time.Duration((i*7)%5) * time.Millisecond)
			out[i] = fmt.Sprintf("job-%d", i)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := mk(1)
	for _, w := range []int{2, 8} {
		got := mk(w)
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", w, i, got[i], seq[i])
			}
		}
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	errBoom := errors.New("boom")
	err := Run(context.Background(), 20, 4, func(_ context.Context, i int) error {
		if i == 3 || i == 11 {
			return fmt.Errorf("job %d: %w", i, errBoom)
		}
		return nil
	})
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := err.Error(); got != "job 3: boom" && got != "job 11: boom" {
		t.Fatalf("err = %q, want a job error", got)
	}
}

func TestRunWrappedCancellationDoesNotMaskRealError(t *testing.T) {
	// Job 3 fails with a real error while job 0 is still running; job 0
	// then observes the induced cancellation and returns it *wrapped*
	// (as fig7 does with fmt.Errorf("fig7: %w", ctx.Err())). Run must
	// still report the real root cause, not job 0's wrapped cancellation.
	errBoom := errors.New("boom")
	failed := make(chan struct{})
	err := Run(context.Background(), 4, 4, func(ctx context.Context, i int) error {
		if i == 3 {
			defer close(failed)
			return errBoom
		}
		if i == 0 {
			<-failed
			<-ctx.Done() // wait for the induced cancellation
			return fmt.Errorf("wrapped: %w", ctx.Err())
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the real error, not a wrapped cancellation", err)
	}
}

func TestRunFailureCancelsRemaining(t *testing.T) {
	var ran int32
	errBoom := errors.New("boom")
	err := Run(context.Background(), 1000, 2, func(ctx context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if n := atomic.LoadInt32(&ran); n == 1000 {
		t.Fatal("no job was skipped after failure")
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	started := 0
	err := Run(ctx, 500, 2, func(ctx context.Context, i int) error {
		mu.Lock()
		started++
		if started == 5 {
			cancel()
		}
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunZeroJobs(t *testing.T) {
	if err := Run(context.Background(), 0, 4, func(context.Context, int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRepanicsInCaller: a panicking job must not kill the process from
// a worker goroutine. Run cancels and drains the other jobs, then
// re-panics with the same value in the caller, after every worker is done.
func TestRunRepanicsInCaller(t *testing.T) {
	type boom struct{ i int }
	var ran, drained atomic.Int32
	var rec any
	func() {
		defer func() { rec = recover() }()
		_ = Run(context.Background(), 1000, 4, func(ctx context.Context, i int) error {
			ran.Add(1)
			switch i {
			case 0:
				<-ctx.Done() // in flight when the panic hits: must be drained
				drained.Add(1)
			case 3:
				panic(boom{i})
			}
			return nil
		})
	}()
	if got, ok := rec.(boom); !ok || got.i != 3 {
		t.Fatalf("recovered %#v, want the job's panic value boom{3}", rec)
	}
	if drained.Load() != 1 {
		t.Fatal("Run re-panicked before its in-flight jobs returned")
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("no job was skipped after the panic")
	}
}

// TestRunSingleWorkerIsSequential: with one worker the calling goroutine
// is the whole pool, so jobs run one at a time in index order.
func TestRunSingleWorkerIsSequential(t *testing.T) {
	var order []int
	var inFlight, maxInFlight atomic.Int32
	err := Run(context.Background(), 20, 1, func(_ context.Context, i int) error {
		if n := inFlight.Add(1); n > maxInFlight.Load() {
			maxInFlight.Store(n)
		}
		order = append(order, i)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxInFlight.Load() != 1 {
		t.Fatalf("%d jobs ran at once with one worker", maxInFlight.Load())
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want 0..19 in sequence", order)
		}
	}
	if len(order) != 20 {
		t.Fatalf("ran %d jobs, want 20", len(order))
	}
}

// TestRunRepanicsFirstPanic: when several jobs would panic, Run re-panics
// once with the first panic's value; the panic cancels the batch, so later
// jobs, panicking ones included, are never dispatched.
func TestRunRepanicsFirstPanic(t *testing.T) {
	var ran []int
	var rec any
	func() {
		defer func() { rec = recover() }()
		_ = Run(context.Background(), 10, 1, func(_ context.Context, i int) error {
			ran = append(ran, i)
			if i == 2 || i == 5 {
				panic(fmt.Sprintf("job %d", i))
			}
			return nil
		})
	}()
	if rec != "job 2" {
		t.Fatalf("recovered %#v, want the first panic %q", rec, "job 2")
	}
	if len(ran) != 3 {
		t.Fatalf("jobs %v ran, want only 0..2 before the panic cancelled the rest", ran)
	}
}
