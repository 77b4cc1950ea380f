// Package driver runs lint analyzers over type-checked packages. It speaks
// two dialects:
//
//   - standalone: `hetrtalint ./...` resolves packages with
//     `go list -export -deps -json`, type-checks each module package against
//     its dependencies' compiler export data, and runs every analyzer on
//     it (Run).
//   - vettool: `go vet -vettool=hetrtalint ./...` invokes the binary once
//     per package with a vet.cfg file; cmd/go supplies the file lists and
//     export data (RunUnit, unit.go).
//
// Both dialects share the export-data importer and type-checking below.
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ExportImporter resolves imports from compiler export data files, the way
// the gc toolchain itself does. importMap applies vendoring/test-variant
// renames first (identity when empty); packageFile then locates the export
// data of the resolved path.
func ExportImporter(fset *token.FileSet, importMap, packageFile map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("driver: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// TypeCheck parses filenames (comments retained — the analyzers are driven
// by directives) and type-checks them as package path using imp for
// imports. Files named *_test.go are parsed and checked (they are part of
// the package cmd/go hands us) — individual analyzers skip them by
// position when reporting.
func TypeCheck(path string, filenames []string, imp types.Importer) (*Package, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

// IsTestFile reports whether the file containing pos is a _test.go file.
// The in-tree invariants the analyzers enforce are production-code
// contracts; tests exercise intentionally pathological shapes.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// shortPath renders filename relative to the working directory when that
// makes it shorter, mirroring how cmd/go prints vet positions.
func shortPath(filename string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, filename); err == nil && len(rel) < len(filename) {
			return rel
		}
	}
	return filename
}
