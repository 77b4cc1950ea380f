package exact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgen"
)

// -update rewrites testdata/search_golden.json instead of comparing
// against it:
//
//	go test ./internal/exact -run TestSearchPathGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/search_golden.json")

const searchGoldenPath = "testdata/search_golden.json"

// searchGoldenEntry is one serial search's observable outcome. Expansions
// and the spans digest are path-dependent, so a match pins the order in
// which the search visits its nodes, not just the optimum it proves.
type searchGoldenEntry struct {
	Graph       int    `json:"graph"`
	Platform    string `json:"platform"`
	Makespan    int64  `json:"makespan"`
	Status      string `json:"status"`
	LowerBound  int64  `json:"lower_bound"`
	Expansions  int64  `json:"expansions"`
	SpansSHA256 string `json:"spans_sha256"`
}

// searchGoldenPopulation is the pinned workload: transitively reduced
// Small(8,24) graphs with c_off 0.15 (the analyze-miss shape), each
// searched on three platforms with a 10k budget.
func searchGoldenPopulation(t testing.TB) ([]*dag.Graph, []platform.Platform) {
	t.Helper()
	const graphs = 320
	gen := taskgen.MustNew(taskgen.Small(8, 24), 2018)
	gs := make([]*dag.Graph, graphs)
	for i := range gs {
		g, _, _, err := gen.HetTask(0.15)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.TransitiveReduction(); err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	return gs, []platform.Platform{platform.Hetero(4), platform.Hetero(2), platform.Homogeneous(3)}
}

// spansDigest hashes a schedule field by field, fixed-width little endian.
func spansDigest(spans []sched.Span) string {
	h := sha256.New()
	var buf [32]byte
	for _, s := range spans {
		binary.LittleEndian.PutUint64(buf[0:], uint64(s.Node))
		binary.LittleEndian.PutUint64(buf[8:], uint64(s.Start))
		binary.LittleEndian.PutUint64(buf[16:], uint64(s.Finish))
		binary.LittleEndian.PutUint64(buf[24:], uint64(s.Resource))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSearchPathGolden replays the serial search over a fixed population
// and compares every Result field with the recording, so a kernel change
// that alters which nodes the search visits, or in what order, fails here
// even when the optimum is unchanged.
func TestSearchPathGolden(t *testing.T) {
	gs, plats := searchGoldenPopulation(t)
	var got []searchGoldenEntry
	capped, rootClosed := 0, 0
	for i, g := range gs {
		for _, p := range plats {
			r, err := MinMakespan(context.Background(), g, p, Options{MaxExpansions: 10_000})
			if err != nil {
				t.Fatalf("graph %d on %v: %v", i, p, err)
			}
			if r.Status == Feasible {
				capped++
			}
			if r.Expansions == 0 {
				rootClosed++
			}
			got = append(got, searchGoldenEntry{
				Graph:       i,
				Platform:    p.String(),
				Makespan:    r.Makespan,
				Status:      r.Status.String(),
				LowerBound:  r.LowerBound,
				Expansions:  r.Expansions,
				SpansSHA256: spansDigest(r.Spans),
			})
		}
	}
	if capped == 0 || rootClosed == 0 {
		t.Fatalf("population must mix budget-capped (%d) and root-closed (%d) searches", capped, rootClosed)
	}

	if *updateGolden {
		// One entry per line keeps diffs of a re-recording readable.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, e := range got {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(searchGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(searchGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/exact -run TestSearchPathGolden -update)", err)
	}
	var want []searchGoldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d searches, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 5 {
				t.Errorf("search %d drifted:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d searches drifted from %s", bad, len(got), searchGoldenPath)
	}
}
