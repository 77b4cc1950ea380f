package main

import (
	"runtime"
	"testing"
	"time"
)

// A probe that allocated would be charged for the generator's garbage
// collection (see prober).
func TestProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	pr := newProber()
	if n := testing.AllocsPerRun(20, pr.once); n != 0 {
		t.Errorf("one probe iteration allocates %v times", n)
	}
}

func TestThreadCPUAdvancesWithWork(t *testing.T) {
	// Like the probe, stay on one thread: another thread's clock is
	// another count.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pr := newProber()
	c0 := threadCPU()
	for range 50 {
		pr.once()
	}
	if d := threadCPU() - c0; d <= 0 || d > int64(10*time.Second) {
		t.Errorf("50 probe iterations took %v of thread CPU", time.Duration(d))
	}
}

func TestSlowdown(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	samples := []speedSample{
		{at(0), probeNominal}, {at(10), 2 * probeNominal}, {at(20), 2 * probeNominal}, {at(30), 4 * probeNominal},
	}
	for _, c := range []struct {
		lo, hi int
		want   float64
	}{
		{0, 40, 2},   // median of all four
		{25, 40, 4},  // the one inside
		{50, 60, 4},  // none inside: the nearest, before
		{-9, -5, 1},  // none inside: the nearest, after
		{11, 12, 2},  // between bursts: the nearest
		{0, 10, 1},   // hi is exclusive
		{30, 100, 4}, // lo is inclusive
	} {
		if got := slowdown(samples, at(c.lo), at(c.hi)); got != c.want {
			t.Errorf("slowdown over [%d, %d) ms = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}
