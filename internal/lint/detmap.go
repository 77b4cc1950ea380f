package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// canonicalPackages lists the import paths whose output bytes are part of a
// determinism contract: graph/taskset fingerprints, the service cache's
// byte-identical repeat responses, report and admit JSON, and experiment
// CSV. Packages outside this list opt in with a //hetrta:canonical file
// directive.
var canonicalPackages = map[string]bool{
	"repro":                      true, // report.go, taskset.go: canonical report JSON
	"repro/internal/dag":         true, // Fingerprint, DOT output
	"repro/internal/rta":         true, // served bound results and Skipped reasons
	"repro/internal/service":     true, // byte-identical cached responses, /statsz
	"repro/internal/taskset":     true, // order-insensitive taskset fingerprints, AdmitReport parts
	"repro/internal/experiments": true, // CSV/JSON emitters behind -fig sweeps
	"repro/cmd/dagrtad":          true, // HTTP handlers serving cached bytes
	"repro/cmd/experiments":      true, // CSV emitters
}

// Detmap flags nondeterministically ordered map iteration in packages that
// produce canonical bytes: `for range` over a map, and maps.Keys/Values
// calls whose order escapes unsorted. The //lint:ordered <why> hatch
// records why a specific iteration is order-insensitive.
var Detmap = &analysis.Analyzer{
	Name: "detmap",
	Doc:  "flags unordered map iteration in packages that produce canonical bytes",
	Run:  runDetmap,
}

func runDetmap(pass *analysis.Pass) error {
	inScope := canonicalPackages[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if !inScope && !fileHasDirective(f, "hetrta:canonical") {
			continue
		}
		escapes := collectEscapes(pass.Fset, f, "ordered")

		// maps.Keys/Values results consumed directly by a sorting
		// slices helper are ordered; remember those call expressions.
		sorted := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPkgFunc(pass, call.Fun, "slices", "Sorted", "SortedFunc", "SortedStableFunc") {
				return true
			}
			for _, arg := range call.Args {
				if inner, ok := arg.(*ast.CallExpr); ok {
					sorted[inner] = true
				}
			}
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					checkEscape(pass, escapes, "ordered", n.Pos(),
						"iteration over map in a canonical-bytes package: order is nondeterministic; iterate sorted keys, or annotate //lint:ordered <why> if the result is order-insensitive")
				}
			case *ast.CallExpr:
				if sorted[n] {
					return true
				}
				if isPkgFunc(pass, n.Fun, "maps", "Keys", "Values") {
					checkEscape(pass, escapes, "ordered", n.Pos(),
						"maps.Keys/Values yields keys in nondeterministic order in a canonical-bytes package; wrap in slices.Sorted (or friends), or annotate //lint:ordered <why>")
				}
			}
			return true
		})
	}
	return nil
}

// isPkgFunc reports whether fun is a selector pkg.Name resolving to one of
// the named functions of the given standard-library package.
func isPkgFunc(pass *analysis.Pass, fun ast.Expr, pkgPath string, names ...string) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}
