package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/lint/analysis"
)

// listPackage is the subset of `go list -json` output the standalone
// driver consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Module     *struct{ Path string }
	DepOnly    bool
	Incomplete bool
}

// Finding is one rendered diagnostic of a standalone run.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

// Run executes analyzers over the packages matching patterns (resolved in
// dir, "" = current directory). Findings are printed to out as
// "file:line:col: message (analyzer)" sorted by position, and returned.
// Test files are loaded but never reported on (IsTestFile).
func Run(analyzers []*analysis.Analyzer, patterns []string, dir string, out io.Writer) ([]Finding, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,ImportMap,Module,DepOnly,Incomplete",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("driver: go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(outBytes))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("driver: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && p.Module != nil {
			q := p
			targets = append(targets, &q)
		}
	}

	var findings []Finding
	for _, t := range targets {
		if t.Incomplete {
			return nil, fmt.Errorf("driver: package %s did not build; fix compile errors first", t.ImportPath)
		}
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		imp := ExportImporter(token.NewFileSet(), t.ImportMap, exports)
		pkg, err := TypeCheck(t.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("driver: type-checking %s: %w", t.ImportPath, err)
		}
		fs, err := runPackage(analyzers, pkg)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}

	printFindings(findings, out)
	return findings, nil
}

// printFindings sorts findings by position and prints each as
// "file:line:col: message (analyzer)".
func printFindings(findings []Finding, out io.Writer) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	for _, f := range findings {
		pos := f.Position
		pos.Filename = shortPath(pos.Filename)
		fmt.Fprintf(out, "%s: %s (%s)\n", pos, f.Message, f.Analyzer)
	}
}

// runPackage executes every analyzer on one loaded package, collecting
// findings outside _test.go files.
func runPackage(analyzers []*analysis.Analyzer, pkg *Package) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		report := func(d analysis.Diagnostic) {
			if IsTestFile(pkg.Fset, d.Pos) {
				return
			}
			findings = append(findings, Finding{
				Position: pkg.Fset.Position(d.Pos),
				Analyzer: a.Name,
				Message:  d.Message,
			})
		}
		pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, report)
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("driver: analyzer %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	return findings, nil
}
