package hetrta

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/taskset"
)

// Shadow types: field-for-field copies of the report structs WITHOUT the
// MarshalJSON method, so encoding them exercises the reflection encoder the
// hand-written one must match byte-for-byte.
type shadowReport struct {
	Platform    platform.Platform      `json:"platform"`
	Fingerprint string                 `json:"fingerprint,omitempty"`
	Taskset     TasksetSummary         `json:"taskset"`
	Tasks       []AdmitTaskSummary     `json:"tasks,omitempty"`
	Policies    []taskset.PolicyResult `json:"policies,omitempty"`
	Admitted    bool                   `json:"admitted"`
}

func assertSameJSON(t *testing.T, rep *AdmitReport) {
	t.Helper()
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("hand encoder: %v", err)
	}
	want, err := json.Marshal(shadowReport(*rep))
	if err != nil {
		t.Fatalf("reflection encoder: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoders disagree:\n hand: %s\n refl: %s", got, want)
	}
}

func TestAdmitReportMarshalMatchesReflection(t *testing.T) {
	reports := []*AdmitReport{
		{}, // zero value: nil classes render as null, empties omitted
		// Every escape the string encoder makes, through both reason fields.
		{Platform: platform.Hetero(4), Policies: []taskset.PolicyResult{{
			Policy: "global",
			Reason: "boom <&> \"quoted\"\nnewline\ttab\x01ctl",
			Tasks:  []taskset.TaskDecision{{Reason: "back\\slash\rreturn\x1f\u2028\u2029 bad\xffutf8 <é>"}},
		}}},
		{
			Platform:    platform.New(platform.ResourceClass{Name: "höst", Count: 4}, platform.ResourceClass{Name: "gpu", Count: 2}, platform.ResourceClass{Name: "fpga", Count: 0}),
			Fingerprint: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
			Taskset:     TasksetSummary{Tasks: 2, Offloading: 1, Utilization: 0.30000000000000004},
			Tasks: []AdmitTaskSummary{
				{Task: 0, Nodes: 3, Volume: 13, CriticalPath: 9, Offloads: 1, Period: 60, Deadline: 50, Jitter: 3, Utilization: 13.0 / 60},
				{Task: 1, Nodes: 2, Volume: 10, CriticalPath: 10, Period: 80, Deadline: 70, Utilization: 0.125},
			},
			Policies: []taskset.PolicyResult{
				{
					Policy: "federated", Admitted: false, Reason: "task 1: density 2.00 does not fit any of 0 shared cores",
					Tasks: []taskset.TaskDecision{
						{Task: 0, Admitted: true, Reason: "shared partition", R: 120.5, Utilization: 1e-7},
						{Task: 1, Admitted: true, Cores: 3, Heavy: true, UsesDevice: true, DeviceClasses: []int{1, 2}, R: 3e21, Utilization: 2},
					},
					DedicatedCores: 3, SharedCores: 1,
				},
				{Policy: "global", Admitted: true, Iterations: 17, Tasks: []taskset.TaskDecision{{Task: 0, Admitted: true, R: 49.999999999999996, Utilization: math.SmallestNonzeroFloat64}}},
			},
			Admitted: true,
		},
	}
	for i, rep := range reports {
		rep := rep
		t.Run("", func(t *testing.T) {
			_ = i
			assertSameJSON(t, rep)
		})
	}
}

// TestAdmitReportMarshalExactSize: MarshalJSON returns a body whose
// capacity is its length, for a cache to keep without headroom, and
// bodies do not share the pooled scratch buffer they were built in.
func TestAdmitReportMarshalExactSize(t *testing.T) {
	big := &AdmitReport{Platform: platform.Hetero(4), Fingerprint: "ab", Admitted: true}
	for i := 0; i < 40; i++ {
		big.Tasks = append(big.Tasks, AdmitTaskSummary{Task: i, Nodes: 3, Period: 60, Deadline: 50, Utilization: 0.25})
	}
	small := &AdmitReport{Platform: platform.Hetero(2), Policies: []taskset.PolicyResult{{Policy: "global", Reason: "rejected"}}}
	first, err := big.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first)
	for _, rep := range []*AdmitReport{small, big, small} {
		b, err := rep.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if cap(b) != len(b) {
			t.Errorf("body len %d, cap %d; want equal", len(b), cap(b))
		}
	}
	if cap(first) != len(first) || !bytes.Equal(first, want) {
		t.Fatalf("first body changed after later marshals, or has headroom (len %d, cap %d)", len(first), cap(first))
	}
	if _, err := (&AdmitReport{Taskset: TasksetSummary{Utilization: math.NaN()}}).MarshalJSON(); err == nil {
		t.Fatal("NaN utilization marshaled without an error")
	}
	assertSameJSON(t, big)
}

// Float corner cases sweep the format switch (f vs e) and the exponent
// cleanup, where a divergence from encoding/json would silently split the
// delta and whole-set cache namespaces.
func TestAdmitReportMarshalFloatCorners(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.1, 2.0 / 3.0, 1e-6, 9.999999e-7, 1e-9, 1e20, 1e21, 1.5e21,
		-1e-7, -1e21, 1e100, 5e-324, math.MaxFloat64, 123456789.123456789,
	}
	for _, v := range vals {
		rep := &AdmitReport{Platform: platform.Homogeneous(1), Taskset: TasksetSummary{Utilization: v},
			Policies: []taskset.PolicyResult{{Policy: "global", Tasks: []taskset.TaskDecision{{R: v, Utilization: v}}}}}
		assertSameJSON(t, rep)
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		rep := &AdmitReport{Taskset: TasksetSummary{Utilization: bad}}
		if _, err := json.Marshal(rep); err == nil {
			t.Errorf("marshal of %v: want error, got none", bad)
		}
	}
}
