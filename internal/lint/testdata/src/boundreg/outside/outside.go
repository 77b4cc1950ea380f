// Package outside declares Bound implementations in a package without a
// bound registry. boundreg checks one package at a time, so no registry
// elsewhere can vouch for them: they are reported unless hatched.
package outside

import "context"

// BoundInput mirrors the real analysis input bundle.
type BoundInput struct{ N int }

// BoundResult mirrors the real bound outcome.
type BoundResult struct{ R int }

// Input re-exports BoundInput the way the facade aliases the real one.
type Input = BoundInput

// Stray is a bound away from the registry's package, written against the
// alias.
type Stray struct{} // want "Bound implementation Stray is declared outside the bound registry's package"

func (Stray) Name() string { return "stray" }

func (Stray) Compute(ctx context.Context, in Input) (BoundResult, error) {
	return BoundResult{R: in.N}, ctx.Err()
}

// Wrapper forwards to a registered bound and is deliberately kept here.
//
//lint:boundreg reports under the wrapped bound's registered name
type Wrapper struct{ inner Stray }

func (w Wrapper) Name() string { return w.inner.Name() }

func (w Wrapper) Compute(ctx context.Context, in BoundInput) (BoundResult, error) {
	return w.inner.Compute(ctx, in)
}
