package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// Two one-second windows of 1,000 requests each: the first with 20% of
// vCPU time stolen and 1 ms latencies, the second with 40% and 3 ms. Only
// the calmer first window counts; a closed loop's rate and latency are
// reported as if nothing had been stolen, its CPU time as measured.
func TestWindowedKeepsTheCalmWindowAndCorrectsClosedLoops(t *testing.T) {
	var timed []response
	for w, lat := range []time.Duration{time.Millisecond, 3 * time.Millisecond} {
		for i := range 1000 {
			end := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond + 500*time.Microsecond
			timed = append(timed, response{send: end - lat, end: end})
		}
	}
	ncpu := float64(runtime.NumCPU())
	cpu := []cpuSample{
		{0, 0, 0},
		{time.Second, 0.2, 0.2 * ncpu},
		{2 * time.Second, 0.4, 0.6 * ncpu},
	}
	start := time.Unix(1000, 0)
	speed := []speedSample{{start.Add(time.Second), probeNominal}}
	for _, c := range []struct {
		closed        bool
		thr, p50, cpu float64
	}{
		{false, 1000, 1, 200},
		{true, 1250, 0.8, 200},
	} {
		st := windowed(phase{timed, start, 2 * time.Second, cpu, speed, c.closed})
		near := func(got, want float64) bool { return math.Abs(got-want) < 1e-6*want }
		if st.windows != 2 || !near(st.thr, c.thr) || !near(st.p50, c.p50) || !near(st.cpu, c.cpu) || !near(st.steal, 0.3) {
			t.Errorf("closed=%t: %+v, want 2 windows, thr %v, p50 %v, cpu %v, steal 0.3", c.closed, st, c.thr, c.p50, c.cpu)
		}
	}
}
