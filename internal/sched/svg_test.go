package sched

import (
	"strings"
	"testing"

	"repro/internal/platform"
)

func TestWriteSVG(t *testing.T) {
	g := fig1Normalized(t)
	r, err := Simulate(g, platform.Hetero(2), BreadthFirst())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteSVG(&b, g); err != nil {
		t.Fatal(err)
	}
	svg := b.String()
	for _, want := range []string{
		"<svg", "</svg>", "makespan 12", "core 0", "core 1", "dev 0",
		"#fd8d3c", // offload colour present
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Well-formedness smoke checks: balanced rect/text tags, no raw '<' in
	// labels (names are plain here), escaping helper sane.
	if strings.Count(svg, "<rect") == 0 {
		t.Error("no rects emitted")
	}
	if got := xmlEscape(`a<b>&"c`); got != "a&lt;b&gt;&amp;&quot;c" {
		t.Errorf("xmlEscape = %q", got)
	}
}

func TestWriteSVGEmptySchedule(t *testing.T) {
	r := &Result{Platform: platform.Hetero(1), Policy: "breadth-first"}
	var b strings.Builder
	g := fig1Normalized(t)
	// Zero-makespan result with no spans must still render a valid shell.
	if err := r.WriteSVG(&b, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "</svg>") {
		t.Error("empty SVG not closed")
	}
}
