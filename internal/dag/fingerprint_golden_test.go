package dag_test

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/dag"
	"repro/internal/taskgen"
)

// fingerprintGoldenPath maps each case name of TestFingerprintGolden to its
// hex fingerprint. Like every byte-contract golden, it is hashed by the root
// package's TestServedBytesVersioned.
const fingerprintGoldenPath = "testdata/fingerprint_golden.json"

// TestFingerprintGolden pins the hex fingerprints of fixed graphs. The
// serving daemon's X-Fingerprint header and every store log key are these
// bytes, so a change here invalidates every deployed cache and store log:
// it must be deliberate, never a side effect of an optimization, and it
// comes with a bump of hetrta.AlgorithmVersion.
func TestFingerprintGolden(t *testing.T) {
	fromJSON := func(src string) func(t *testing.T) *dag.Graph {
		return func(t *testing.T) *dag.Graph {
			var g dag.Graph
			if err := json.Unmarshal([]byte(src), &g); err != nil {
				t.Fatal(err)
			}
			return &g
		}
	}
	hetTask := func(p taskgen.Params, seed int64, frac float64) func(t *testing.T) *dag.Graph {
		return func(t *testing.T) *dag.Graph {
			g, _, _, err := taskgen.MustNew(p, seed).HetTask(frac)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	cases := []struct {
		name  string
		graph func(t *testing.T) *dag.Graph
	}{
		// The first five are graphs of the FuzzGraphJSON seed corpus
		// (testdata/fuzz/FuzzGraphJSON).
		{"empty", fromJSON(`{"nodes":[],"edges":[]}`)},
		{"named-offload", fromJSON(`{"nodes":[{"name":"v1","wcet":3,"kind":"host"},{"name":"k","wcet":8,"kind":"offload"},{"wcet":2}],"edges":[[0,1],[1,2]]}`)},
		{"multi-class", fromJSON(`{"nodes":[{"wcet":1},{"wcet":8,"kind":"offload","class":2},{"wcet":5,"kind":"offload","class":3},{"wcet":2}],"edges":[[0,1],[0,2],[1,3],[2,3]]}`)},
		{"sync", fromJSON(`{"nodes":[{"wcet":0,"kind":"sync"},{"wcet":4}],"edges":[[0,1]]}`)},
		{"cyclic", fromJSON(`{"nodes":[{"wcet":1},{"wcet":2}],"edges":[[0,1],[1,0]]}`)},
		{"small-seed1", hetTask(taskgen.Small(8, 24), 1, 0.15)},
		{"small-seed2", hetTask(taskgen.Small(8, 24), 2, 0.3)},
		{"large-seed7", hetTask(taskgen.Large(100, 180), 7, 0.2)},
		{"multi-offload", func(t *testing.T) *dag.Graph {
			g, _, _, err := taskgen.MustNew(taskgen.Small(10, 30), 3).MultiHetTask(3, 0.4, 2)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	data, err := os.ReadFile(fingerprintGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("%s has %d fingerprints for %d graphs", fingerprintGoldenPath, len(want), len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := want[tc.name]
			if !ok {
				t.Fatalf("no fingerprint for %s in %s", tc.name, fingerprintGoldenPath)
			}
			if got := tc.graph(t).Fingerprint().String(); got != w {
				t.Errorf("fingerprint = %s, want %s", got, w)
			}
		})
	}
}
