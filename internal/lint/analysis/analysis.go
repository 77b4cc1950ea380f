// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, carrying exactly what the
// repo-specific analyzers of package lint need: a named Analyzer with a Run
// function, a per-package Pass with full type information, and positional
// Diagnostics. Every analyzer checks one package at a time; there are no
// package facts.
//
// The x/tools module is deliberately not a dependency: the toolchain is the
// only thing this repo builds against. The drivers in internal/lint/driver
// feed passes either from `go list -export` metadata (standalone mode) or
// from the vet.cfg protocol cmd/go speaks to -vettool binaries.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. Name must be a valid flag name; Doc's first
// line is the one-line summary shown in -flags output.
type Analyzer struct {
	Name string
	Doc  string
	// Run executes the check on one package. Diagnostics go through
	// pass.Report; an error aborts the whole lint run (reserve it for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries everything an Analyzer.Run sees of one package: syntax with
// comments, the type-checked package object, and the resolved type
// information of every expression.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a finding.
	Report func(Diagnostic)
}

// Reportf is the printf convenience over Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// NewPass assembles a Pass for one package. report receives diagnostics as
// they are emitted.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    report,
	}
}
