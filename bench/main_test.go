package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is BENCHMARK.json at the repository root, which defines the
// benchmark for tools that run it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc benchmarkJSON
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, defined %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n %+v\ndefined:\n %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer:\n %+v\ndefined:\n %+v", doc.PerLayer, perLayer())
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v outside (0, setup_s's %v]", m.Name, m.Bound, endToEnd[0].Bound)
		}
	}
}

// TestSmokeEveryWorkload runs every workload for one second against a
// freshly built daemon, traced, and checks that it completes, answers
// correctly and reports every metric. store-spill runs on a working set
// of 2,048 graphs.
func TestSmokeEveryWorkload(t *testing.T) {
	ctx := context.Background()
	e, err := newEnv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(e.tmp)
	e.spans = t.TempDir()
	for _, w := range workloads {
		w := quick(w)
		t.Run(w.name, func(t *testing.T) {
			r, err := e.runWorkload(ctx, w, 1, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("correct %t (%s), %d of %d failed", r.Correct, r.Error, r.Failed, r.Attempted)
			}
			for _, m := range endToEnd {
				if v := r.EndToEnd[m.Name]; !(v > 0) {
					t.Errorf("%s = %v", m.Name, v)
				}
			}
			for _, m := range perLayer() {
				if _, ok := r.Layers[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing", m.Name)
				}
			}
			if c := r.Layers["trace.coverage"]; c < 0.9 {
				t.Errorf("trace coverage %v < 0.9", c)
			}
			var out strings.Builder
			if err := printResultLine(&out, &workloadResult{Runs: []runResult{*r}}, true); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(out.String()), &line); err != nil || !line.Correct || len(line.Metrics) != len(perLayer()) {
				t.Errorf("result line %q: %v", out.String(), err)
			}
		})
	}
}
