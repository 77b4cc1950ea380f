// Package stats provides the small statistical toolkit used by the
// experiment harnesses: running accumulators and percentage change in the
// paper's footnote-3 sense.
package stats

import (
	"fmt"
	"math"
)

// Accumulator collects samples and yields summary statistics.
type Accumulator struct {
	xs []float64
}

// Add appends a sample.
func (a *Accumulator) Add(x float64) { a.xs = append(a.xs, x) }

// N returns the number of samples.
func (a *Accumulator) N() int { return len(a.xs) }

// Mean returns the arithmetic mean, or NaN when empty.
func (a *Accumulator) Mean() float64 {
	if len(a.xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range a.xs {
		s += x
	}
	return s / float64(len(a.xs))
}

// Std returns the sample standard deviation (n-1), or NaN for n < 2.
func (a *Accumulator) Std() float64 {
	n := len(a.xs)
	if n < 2 {
		return math.NaN()
	}
	m := a.Mean()
	var s float64
	for _, x := range a.xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(n-1))
}

// Min returns the smallest sample, or NaN when empty.
func (a *Accumulator) Min() float64 {
	if len(a.xs) == 0 {
		return math.NaN()
	}
	m := a.xs[0]
	for _, x := range a.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest sample, or NaN when empty.
func (a *Accumulator) Max() float64 {
	if len(a.xs) == 0 {
		return math.NaN()
	}
	m := a.xs[0]
	for _, x := range a.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary is a one-line numeric digest.
func (a *Accumulator) Summary() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f",
		a.N(), a.Mean(), a.Std(), a.Min(), a.Max())
}

// PercentChange computes the percentage change of a with respect to b,
// 100·(a−b)/b — the paper's footnote 3: "the percentage change computes the
// relative change of two values from the same variable". Figure 6 plots
// PercentChange(avg exec time of τ, avg exec time of τ'): positive values
// mean τ is slower than τ' (the transformation helped). Returns NaN when
// b == 0.
func PercentChange(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return 100 * (a - b) / b
}

// Increment computes 100·(a−b)/b like PercentChange; the paper's Figure 7
// uses it as "increment of the response-time bound with respect to the
// minimum makespan" (a = bound, b = makespan).
func Increment(bound, reference float64) float64 {
	return PercentChange(bound, reference)
}
