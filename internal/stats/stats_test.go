package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d, want 8", a.N())
	}
	if got := a.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := a.Std(); math.Abs(got-2.138089935299395) > 1e-12 {
		t.Errorf("Std = %v, want ~2.138", got)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", a.Min(), a.Max())
	}
}

func TestEmptyAccumulator(t *testing.T) {
	var a Accumulator
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.Min()) || !math.IsNaN(a.Max()) ||
		!math.IsNaN(a.Std()) {
		t.Error("empty accumulator should yield NaN everywhere")
	}
}

func TestStdSingleSample(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if !math.IsNaN(a.Std()) {
		t.Error("Std of single sample should be NaN")
	}
}

func TestPercentChange(t *testing.T) {
	if got := PercentChange(12, 10); got != 20 {
		t.Errorf("PercentChange(12,10) = %v, want 20", got)
	}
	if got := PercentChange(8, 10); got != -20 {
		t.Errorf("PercentChange(8,10) = %v, want -20", got)
	}
	if !math.IsNaN(PercentChange(1, 0)) {
		t.Error("PercentChange with zero base should be NaN")
	}
	if got := Increment(13, 10); got != 30 {
		t.Errorf("Increment(13,10) = %v, want 30", got)
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(2)
	s := a.Summary()
	if !strings.Contains(s, "n=2") || !strings.Contains(s, "mean=1.500") {
		t.Errorf("Summary = %q", s)
	}
}

func TestQuickMeanWithinMinMax(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		for _, x := range xs {
			// Skip non-finite and astronomically large inputs: the mean is
			// computed with a plain sum, which overflows near 1e308; our
			// domain (schedule lengths, percentages) is far below that.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				continue
			}
			a.Add(x)
		}
		if a.N() == 0 {
			return true
		}
		m := a.Mean()
		return m >= a.Min()-1e-9*math.Abs(a.Min())-1e-9 &&
			m <= a.Max()+1e-9*math.Abs(a.Max())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
