package driver

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"

	"repro/internal/lint/analysis"
)

// vetConfig mirrors the JSON job description cmd/go writes for -vettool
// binaries (one file per package; unknown fields are ignored). The shape is
// the same one golang.org/x/tools/go/analysis/unitchecker consumes.
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit executes one vet.cfg job: type-check the package cmd/go
// described, run the analyzers, and print findings to stderr. The returned exit code follows the unitchecker convention:
// 0 clean, 1 internal error, 2 findings.
func RunUnit(analyzers []*analysis.Analyzer, cfgFile string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(stderr, "hetrtalint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "hetrtalint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// cmd/go expects the vetx output file its dependents' jobs would read;
	// the analyzers keep no package facts, so it is always empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "hetrtalint: writing %s: %v\n", cfg.VetxOutput, err)
			return 1
		}
	}
	// Packages outside any module (the standard library) carry none of the
	// repo invariants; so does a dependency analyzed only for its vetx.
	if cfg.ModulePath == "" || cfg.VetxOnly {
		return 0
	}

	imp := ExportImporter(token.NewFileSet(), cfg.ImportMap, cfg.PackageFile)
	pkg, err := TypeCheck(cfg.ImportPath, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "hetrtalint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	findings, err := runPackage(analyzers, pkg)
	if err != nil {
		fmt.Fprintf(stderr, "hetrtalint: %v\n", err)
		return 1
	}
	if len(findings) == 0 {
		return 0
	}
	printFindings(findings, stderr)
	return 2
}
