// Package a exercises boundreg against a miniature Bound world: the
// analyzer matches implementations structurally (Name() string +
// Compute(context.Context, BoundInput) (BoundResult, error)), so the
// fixture declares its own input/result types and registry.
package a

import "context"

// BoundInput mirrors the real analysis input bundle.
type BoundInput struct{ N int }

// BoundResult mirrors the real bound outcome.
type BoundResult struct{ R int }

// registry declares each bound's relation to the simulated makespan and
// where it is safe; the crosscheck sweep and admission both read it.
//
//hetrta:registry bounds
var registry = map[string]string{
	"reg": "bounds-sim",
}

// Registered appears in the registry: clean.
type Registered struct{}

func (Registered) Name() string { return "reg" }

func (Registered) Compute(ctx context.Context, in BoundInput) (BoundResult, error) {
	return BoundResult{R: in.N}, ctx.Err()
}

// Rhom replays the PR-5 incident: a bound wired into admission thinking
// but never registered, so no sweep ever checked it against the simulated
// makespan and nothing declared where it is safe.
type Rhom struct{} // want "Bound \"rhom\" \\(Rhom\\) is missing from the bound registry"

func (Rhom) Name() string { return "rhom" }

func (Rhom) Compute(ctx context.Context, in BoundInput) (BoundResult, error) {
	return BoundResult{R: 2 * in.N}, ctx.Err()
}

// Dynamic computes its name at runtime: unverifiable.
type Dynamic struct{ tag string } // want "Name\\(\\) does not return a compile-time constant"

func (d Dynamic) Name() string { return d.tag }

func (d Dynamic) Compute(ctx context.Context, in BoundInput) (BoundResult, error) {
	return BoundResult{R: in.N}, ctx.Err()
}

// Decorator forwards to a wrapped bound and is deliberately unregistered.
//
//lint:boundreg reports under the wrapped bound's name, which is registered
type Decorator struct{ inner Registered }

func (d Decorator) Name() string { return d.inner.Name() }

func (d Decorator) Compute(ctx context.Context, in BoundInput) (BoundResult, error) {
	return d.inner.Compute(ctx, in)
}

// NotABound has the right names but the wrong shapes: ignored.
type NotABound struct{}

func (NotABound) Name() int { return 0 }

func (NotABound) Compute(in BoundInput) (BoundResult, error) {
	return BoundResult{R: in.N}, nil
}
