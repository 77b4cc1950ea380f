// Package lint holds the repo-specific static analyzers behind
// cmd/hetrtalint. Each analyzer machine-checks an invariant the codebase
// otherwise enforces only by convention or after-the-fact sweeps:
//
//   - detmap: packages that produce canonical bytes (fingerprints, cached
//     report JSON, CSV emitters) must not iterate maps in
//     nondeterministic order.
//   - ctxpoll: the exact search oracle must keep every unbounded search
//     loop promptly cancellable and must never accept a context just to
//     drop it.
//   - boundreg: every Bound implementation must be declared in the bound
//     registry of its own package, which states its crosscheck relation
//     and admission safety, so no new bound can silently enter admission
//     minima un-vetted the way Rhom once did (DESIGN.md §10.3).
//   - hotalloc: functions annotated //hetrta:hotpath (the PR-2
//     scratch-reuse surfaces) must not reintroduce per-call allocations.
//
// Escape hatches are line comments carrying a mandatory justification:
// //lint:ordered <why>, //lint:polled <why>, //lint:alloc <why>,
// //lint:boundreg <why>. A hatch without a justification is itself a
// finding. See DESIGN.md §11.
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/lint/analysis"
)

// Suite returns the full analyzer suite in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{Detmap, Ctxpoll, Boundreg, Hotalloc}
}

// fileHasDirective reports whether any comment line in f is exactly
// //<directive> (e.g. //hetrta:canonical), the opt-in used by packages —
// and test fixtures — outside the built-in scope lists.
func fileHasDirective(f *ast.File, directive string) bool {
	for _, g := range f.Comments {
		for _, c := range g.List {
			if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
				return true
			}
		}
	}
	return false
}

// docHasDirective reports whether a declaration's doc comment contains the
// directive line (e.g. //hetrta:hotpath on a FuncDecl).
func docHasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
			return true
		}
	}
	return false
}

// registryDirective returns the argument of a //hetrta:registry <kind>
// directive in doc ("" when absent).
func registryDirective(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(line, "hetrta:registry"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// escape is one //lint:<marker> hatch comment.
type escape struct {
	pos       token.Pos
	justified bool
}

// escapeIndex maps source lines to the hatch comments of one marker within
// one file. A hatch applies to constructs on its own line or the line
// directly below (comment-above style).
type escapeIndex map[int]escape

// collectEscapes indexes //lint:<marker> comments of f by line.
func collectEscapes(fset *token.FileSet, f *ast.File, marker string) escapeIndex {
	idx := escapeIndex{}
	prefix := "lint:" + marker
	for _, g := range f.Comments {
		for _, c := range g.List {
			line := strings.TrimPrefix(c.Text, "//")
			rest, ok := strings.CutPrefix(strings.TrimSpace(line), prefix)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t")) {
				continue // not this marker (or a longer marker sharing the prefix)
			}
			idx[fset.Position(c.Pos()).Line] = escape{
				pos:       c.Pos(),
				justified: strings.TrimSpace(rest) != "",
			}
		}
	}
	return idx
}

// at returns the hatch covering a construct on line (same line or the line
// above).
func (idx escapeIndex) at(line int) (escape, bool) {
	if e, ok := idx[line]; ok {
		return e, true
	}
	e, ok := idx[line-1]
	return e, ok
}

// checkEscape applies the hatch protocol for a finding at pos: if a
// justified hatch covers it, the finding is suppressed; an unjustified
// hatch is reported as its own finding; otherwise the message is reported.
func checkEscape(pass *analysis.Pass, idx escapeIndex, marker string, pos token.Pos, message string) {
	line := pass.Fset.Position(pos).Line
	if e, ok := idx.at(line); ok {
		if !e.justified {
			pass.Reportf(e.pos, "escape hatch //lint:%s requires a justification (//lint:%s <why>)", marker, marker)
		}
		return
	}
	pass.Reportf(pos, "%s", message)
}
