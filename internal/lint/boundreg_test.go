package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestBoundreg covers both findings of the per-package check: an
// unregistered bound beside the registry (boundreg/a) and a bound declared
// in a package without one (boundreg/outside).
func TestBoundreg(t *testing.T) {
	linttest.Run(t, lint.Boundreg, "boundreg/a", "boundreg/outside")
}
