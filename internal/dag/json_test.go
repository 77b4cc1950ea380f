package dag

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestJSONRoundTrip(t *testing.T) {
	g, _ := fig1Normalized(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var h Graph
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !g.Equal(&h) {
		t.Fatalf("round trip changed graph:\n%s\nvs\n%s", g, &h)
	}
}

func TestJSONDecodeExternalFormat(t *testing.T) {
	src := `{
	  "nodes": [
	    {"name": "start", "wcet": 1},
	    {"name": "kernel", "wcet": 10, "kind": "offload"},
	    {"name": "end", "wcet": 2, "kind": "host"}
	  ],
	  "edges": [[0,1],[1,2]]
	}`
	var g Graph
	if err := json.Unmarshal([]byte(src), &g); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("decoded n=%d e=%d, want 3,2", g.NumNodes(), g.NumEdges())
	}
	if g.Kind(0) != Host {
		t.Error("omitted kind must default to host")
	}
	if g.Kind(1) != Offload {
		t.Error("kernel kind != offload")
	}
	if g.WCET(1) != 10 {
		t.Errorf("kernel wcet = %d, want 10", g.WCET(1))
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"bad kind", `{"nodes":[{"wcet":1,"kind":"gpu"}],"edges":[]}`},
		{"edge out of range", `{"nodes":[{"wcet":1}],"edges":[[0,5]]}`},
		{"self loop", `{"nodes":[{"wcet":1}],"edges":[[0,0]]}`},
		{"not json", `{{{`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Graph
			if err := json.Unmarshal([]byte(tc.src), &g); err == nil {
				t.Fatalf("Unmarshal(%s) succeeded, want error", tc.src)
			}
		})
	}
}

func TestDOTOutput(t *testing.T) {
	g, _ := fig1(t)
	g.AddNode("sync", 0, Sync)
	dot := g.DOT("fig1")
	for _, want := range []string{
		"digraph \"fig1\"",
		"n0 -> n1;",
		"peripheries=2",      // offload style
		"shape=square",       // sync style
		"label=\"v1 (2)\"",   // name + WCET
		"label=\"vOff (4)\"", // offload label
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, "cluster_legend") {
		t.Error("single-class graph got a class legend")
	}
}

func TestDOTMultiClassLegend(t *testing.T) {
	g := New()
	a := g.AddNode("a", 1, Host)
	gpu := g.AddNode("gpu", 4, Offload) // class 1
	fpga := g.AddNode("fpga", 3, Offload)
	g.SetClass(fpga, 2)
	g.MustAddEdge(a, gpu)
	g.MustAddEdge(a, fpga)
	dot := g.DOT("multi")
	for _, want := range []string{
		"cluster_legend",      // legend present on multi-class graphs
		"fillcolor=lightblue", // class 1 keeps the historical color
		"fillcolor=palegreen", // class 2 is distinguishable
		`label="class 1"`,     // legend entries
		`label="class 2"`,     //
		`label="resource classes"`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("multi-class DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestJSONRoundTripsDeviceClasses(t *testing.T) {
	g := New()
	a := g.AddNode("a", 2, Host)
	b := g.AddNode("b", 5, Offload) // default class 1
	c := g.AddNode("c", 3, Offload)
	g.SetClass(c, 2)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, c)

	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	// Default-class offloads stay class-free on the wire, so existing
	// single-accelerator task files are byte-compatible.
	if strings.Contains(string(data), `"class":1`) {
		t.Errorf("default class serialized: %s", data)
	}
	if !strings.Contains(string(data), `"class":2`) {
		t.Errorf("device class missing: %s", data)
	}
	back := New()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Errorf("round trip changed the graph")
	}
	if back.Class(b) != 1 || back.Class(c) != 2 {
		t.Errorf("classes = %d/%d, want 1/2", back.Class(b), back.Class(c))
	}

	// A class on a host node is rejected.
	if err := json.Unmarshal([]byte(`{"nodes":[{"wcet":1,"class":2}],"edges":[]}`), New()); err == nil {
		t.Error("class on host node accepted")
	}
}

// TestDecodeReverseStarBudget guards decoding against quadratic inputs: a
// star of 160k nodes whose edges arrive in descending order (3.4 MB, under
// the daemon's default 8 MiB body cap). Inserting each edge into a sorted
// row shifts the hub's whole row every time, about 10 s of one core, and
// the daemon decodes before any admission limit or request timeout
// applies; sorting each row once takes well under a second. Both entry
// points are timed: Decode on the canonical body, and json.Unmarshal on a
// variant the canonical scanner declines, so the encoding/json path is
// covered too.
func TestDecodeReverseStarBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes a 3.4 MB graph")
	}
	const n = 160_000
	budget := 3 * time.Second
	if raceEnabled {
		budget *= 5
	}
	var b bytes.Buffer
	b.WriteString(`{"nodes":[`)
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"wcet":1}`)
	}
	b.WriteString(`],"edges":[`)
	for v := n - 1; v >= 1; v-- {
		fmt.Fprintf(&b, "[0,%d]", v)
		if v > 1 {
			b.WriteByte(',')
		}
	}
	b.WriteString(`]}`)
	body := b.Bytes()
	// An escaped key is outside the canonical form.
	fallback := bytes.Replace(body, []byte(`"edges"`), []byte(`"\u0065dges"`), 1)
	if ok, _ := scanCanonical(fallback, New()); ok {
		t.Fatal("the canonical scanner accepted an escaped key")
	}

	check := func(name string, decode func() (*Graph, error)) {
		start := time.Now()
		g, err := decode()
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumNodes() != n || g.NumEdges() != n-1 || g.OutDegree(0) != n-1 || g.InDegree(n-1) != 1 {
			t.Fatalf("%s: decoded n=%d e=%d, want a %d-node star", name, g.NumNodes(), g.NumEdges(), n)
		}
		if elapsed > budget {
			t.Errorf("%s: decoding the reverse-ordered star took %v, budget %v", name, elapsed, budget)
		}
	}
	check("Decode", func() (*Graph, error) { return Decode(body) })
	check("json.Unmarshal", func() (*Graph, error) {
		var g Graph
		return &g, json.Unmarshal(fallback, &g)
	})
}
