package main

import (
	"context"
	"testing"
	"time"
)

// fakeClock advances only when slept on, and then by the requested time
// plus a fixed overshoot, like a coarse timer.
type fakeClock struct {
	now       time.Duration
	overshoot time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	c.now += max(d, 0) + c.overshoot
}

func TestPacerReleasesEverythingDueOnEachWakeUp(t *testing.T) {
	const (
		n        = 3000
		rate     = 3000.0 // one request every 333µs
		interval = time.Second / 3000
	)
	c := &fakeClock{overshoot: time.Millisecond}
	var dues, ats []time.Duration
	pace(context.Background(), c, n, rate, func(i int, due, at time.Duration) {
		if i != len(dues) {
			t.Fatalf("released %d after %d others", i, len(dues))
		}
		dues, ats = append(dues, due), append(ats, at)
	})
	if len(dues) != n {
		t.Fatalf("released %d of %d", len(dues), n)
	}
	for i := range dues {
		if want := time.Duration(float64(i) * float64(time.Second) / rate); dues[i] != want {
			t.Fatalf("request %d due at %v, want %v", i, dues[i], want)
		}
		lag := ats[i] - dues[i]
		// Released no earlier than due, and at most one sleep (the
		// interval plus the overshoot) after it.
		if lag < 0 || lag > interval+c.overshoot {
			t.Fatalf("request %d: lag %v", i, lag)
		}
	}
	// A 1ms overshoot at 3000 req/s batches about four requests per
	// wake-up instead of sleeping once per request.
	if c.sleeps > n/3 {
		t.Errorf("%d sleeps for %d requests: the pacer sleeps per request", c.sleeps, n)
	}
}

func TestPacerWithoutOvershootIsOnSchedule(t *testing.T) {
	c := &fakeClock{}
	pace(context.Background(), c, 100, 1000, func(i int, due, at time.Duration) {
		if at != due {
			t.Errorf("request %d released at %v, due %v", i, at, due)
		}
	})
	if c.sleeps != 99 {
		t.Errorf("%d sleeps, want 99", c.sleeps)
	}
}

func TestPacerStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	released := 0
	pace(ctx, &fakeClock{}, 100, 1000, func(i int, _, _ time.Duration) {
		released++
		if i == 9 {
			cancel()
		}
	})
	if released != 10 {
		t.Errorf("released %d after cancelling at the 10th", released)
	}
}
