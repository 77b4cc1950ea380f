package dag_test

import (
	"encoding/json"
	"testing"

	"repro/internal/dag"
	"repro/internal/taskgen"
)

// TestFingerprintGolden pins the hex fingerprints of fixed graphs. The
// serving daemon's X-Fingerprint header and every store log key are these
// bytes, so a change here invalidates every deployed cache and store log:
// it must be deliberate, never a side effect of an optimization.
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
		want  string
	}{
		// The first five are graphs of the FuzzGraphJSON seed corpus
		// (testdata/fuzz/FuzzGraphJSON).
		{"empty", fromJSON(`{"nodes":[],"edges":[]}`),
			"af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"},
		{"named-offload", fromJSON(`{"nodes":[{"name":"v1","wcet":3,"kind":"host"},{"name":"k","wcet":8,"kind":"offload"},{"wcet":2}],"edges":[[0,1],[1,2]]}`),
			"cfe581f2ae3964c3263ad6541f9adf6f20d760325e5d8605a18ba32064ac3476"},
		{"multi-class", fromJSON(`{"nodes":[{"wcet":1},{"wcet":8,"kind":"offload","class":2},{"wcet":5,"kind":"offload","class":3},{"wcet":2}],"edges":[[0,1],[0,2],[1,3],[2,3]]}`),
			"f67364ae3d458fdc88dc50633b5b18c5bd29549d85a22d09fcf867b837b76b71"},
		{"sync", fromJSON(`{"nodes":[{"wcet":0,"kind":"sync"},{"wcet":4}],"edges":[[0,1]]}`),
			"b09fe6459cb8d7a2765ddab431de659d308aed6844d5f50c776de42e643c1fb0"},
		{"cyclic", fromJSON(`{"nodes":[{"wcet":1},{"wcet":2}],"edges":[[0,1],[1,0]]}`),
			"090a5c461cded215eae10c05bd898306d8aba2d712642a3eb799b3dae705a840"},
		{"small-seed1", hetTask(taskgen.Small(8, 24), 1, 0.15), "bdf359444981e8ccaa3ce3e60f73ec7fffcba5cc9e1a588447ba9b9dc7ce3466"},
		{"small-seed2", hetTask(taskgen.Small(8, 24), 2, 0.3), "e6805bf1671718d1403eb8480fcbb448eec6dadde8857a683faea39c84053aa5"},
		{"large-seed7", hetTask(taskgen.Large(100, 180), 7, 0.2), "099e0745ba2dc2455a5255db4488e17e9ba383d7e9dd531f325873c4ac65e5bd"},
		{"multi-offload", func(t *testing.T) *dag.Graph {
			g, _, _, err := taskgen.MustNew(taskgen.Small(10, 30), 3).MultiHetTask(3, 0.4, 2)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, "59d4da66451431d65939b08972520c91d49585822190b4766bc4747f404d7f1d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.graph(t).Fingerprint().String(); got != tc.want {
				t.Errorf("fingerprint = %s, want %s", got, tc.want)
			}
		})
	}
}
