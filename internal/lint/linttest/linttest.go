// Package linttest is the fixture harness for the internal/lint analyzers,
// a stdlib-only stand-in for golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under testdata/src/<path> of the calling test's package.
// Expectations are `// want "regexp"` comments: every diagnostic on a line
// must be matched by a want regexp on that line and vice versa. A want may
// carry a line offset — `// want+1 "re"` expects the diagnostic one line
// below the comment — which is how fixtures assert on diagnostics reported
// at comment positions (e.g. an unjustified escape hatch, where the
// construct's own line belongs to the hatch).
//
// Fixture imports resolve in two steps: paths that exist under testdata/src
// are loaded; anything else is imported from the toolchain's compiler
// export data via `go list -export`.
package linttest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// Run analyzes each fixture package at testdata/src/<pkgs[i]> with a and
// checks its diagnostics against its want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l := newLoader(t, filepath.Join("testdata", "src"))
	for _, path := range pkgs {
		lp := l.load(path)
		var diags []analysis.Diagnostic
		pass := analysis.NewPass(a, l.fset, lp.files, lp.pkg, lp.info, func(d analysis.Diagnostic) {
			// Mirror the drivers: findings in _test.go files are dropped.
			if !strings.HasSuffix(l.fset.Position(d.Pos).Filename, "_test.go") {
				diags = append(diags, d)
			}
		})
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s on %s: %v", a.Name, path, err)
		}
		checkWants(t, l.fset, lp.files, diags)
	}
}

type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loader type-checks fixture packages with a shared FileSet, resolving
// fixture-local imports recursively and everything else from export data.
type loader struct {
	t       *testing.T
	root    string
	fset    *token.FileSet
	cache   map[string]*loadedPkg
	exports map[string]string // import path → export data file
	gc      types.Importer
}

func newLoader(t *testing.T, root string) *loader {
	l := &loader{
		t:       t,
		root:    root,
		fset:    token.NewFileSet(),
		cache:   map[string]*loadedPkg{},
		exports: map[string]string{},
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l
}

// Import implements types.Importer over both fixture and toolchain
// packages.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, err := os.Stat(filepath.Join(l.root, path)); err == nil {
		return l.load(path).pkg, nil
	}
	return l.gc.Import(path)
}

// load parses and type-checks the fixture package at root/path (memoized).
func (l *loader) load(path string) *loadedPkg {
	l.t.Helper()
	if lp, ok := l.cache[path]; ok {
		return lp
	}
	dir := filepath.Join(l.root, path)
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		l.t.Fatalf("no fixture files in %s", dir)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatalf("parsing fixture: %v", err)
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
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("type-checking fixture %s: %v", path, err)
	}
	lp := &loadedPkg{files: files, pkg: pkg, info: info}
	l.cache[path] = lp
	return lp
}

// lookup feeds the gc importer compiler export data, produced on demand by
// `go list -export` (offline: only the local build cache is consulted).
// One invocation loads the whole dependency closure of the asked-for
// package, so repeated imports stay cheap.
func (l *loader) lookup(path string) (io.ReadCloser, error) {
	if file, ok := l.exports[path]; ok {
		return os.Open(file)
	}
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("linttest: go list -export %s: %v\n%s", path, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("linttest: no export data for %q", path)
	}
	return os.Open(file)
}

// want is one expectation: a diagnostic on line matching re.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

var (
	wantRe    = regexp.MustCompile(`^//\s*want([+-]\d+)?\s+(.*)$`)
	wantStrRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// checkWants matches diagnostics against // want comments by (file, line).
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, _ := strconv.Atoi(m[1])
					line += off
				}
				quoted := wantStrRe.FindAllString(m[2], -1)
				if len(quoted) == 0 {
					t.Errorf("%s: malformed want comment %q", pos, c.Text)
					continue
				}
				for _, q := range quoted {
					expr, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: bad want string %s: %v", pos, q, err)
						continue
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, expr, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}
