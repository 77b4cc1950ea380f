package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{100, 1000, 0},
		{0.01, 1, 999},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("empty sample: %v, %d", v, beyond)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	// 1000 requests, 11 failed: p99 must land on a failure.
	rs := make([]response, 1000)
	for i := range rs {
		rs[i].end = 1_000_000 // 1 ms
		rs[i].failed = i < 11
	}
	lat := sortedCopy(latencies(rs))
	if v, _ := percentile(lat, 99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 1.1%% failures = %v, want +Inf", v)
	}
	if v, _ := percentile(lat, 50); v != 1 {
		t.Errorf("p50 = %v ms, want 1", v)
	}
}

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n         int
		supported bool
	}{{999, false}, {1000, true}, {5000, true}} {
		_, beyond := percentile(make([]float64, c.n), 99)
		if got := beyond >= minBeyond; got != c.supported {
			t.Errorf("n=%d: %d beyond p99, supported %t, want %t", c.n, beyond, got, c.supported)
		}
	}
}

// The quartiles must equal Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
