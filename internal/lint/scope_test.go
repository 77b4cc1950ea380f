package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestScopeListsNameRealPackages checks that every import path in the
// ctxpoll and detmap scope lists names a module directory holding at least
// one non-test Go file, so an entry cannot outlive its package.
func TestScopeListsNameRealPackages(t *testing.T) {
	root := moduleRoot(t)
	for list, pkgs := range map[string]map[string]bool{
		"oraclePackages":    lint.OraclePackages,
		"canonicalPackages": lint.CanonicalPackages,
	} {
		for path := range pkgs {
			rel, ok := strings.CutPrefix(path, "repro")
			if !ok || (rel != "" && !strings.HasPrefix(rel, "/")) {
				t.Errorf("%s: %q is outside module repro", list, path)
				continue
			}
			entries, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(rel)))
			if err != nil {
				t.Errorf("%s: %q: %v", list, path, err)
				continue
			}
			found := false
			for _, e := range entries {
				name := e.Name()
				found = found || (!e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"))
			}
			if !found {
				t.Errorf("%s: %q has no non-test .go file", list, path)
			}
		}
	}
}
