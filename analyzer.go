package hetrta

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/batch"
	"repro/internal/exact"
	"repro/internal/rta"
	"repro/internal/sched"
)

// Degradation reasons carried in Report.DegradedReason. The first two are
// produced by the Analyzer itself when the exact stage runs out of its
// expansion budget or deadline slice; the last two are stamped by the
// serving layer (internal/service) when it routes a request around the
// exact stage entirely.
const (
	// DegradedExactBudget: the exact search exhausted MaxExpansions and
	// returned a feasible-but-unproven makespan.
	DegradedExactBudget = "exact-budget-exhausted"
	// DegradedExactDeadline: the exact stage's deadline slice
	// (DegradeOptions.ExactSlice) expired before the search finished; the
	// report carries bounds only.
	DegradedExactDeadline = "exact-deadline-exceeded"
	// DegradedBreakerOpen: the serving layer's circuit breaker was open, so
	// the exact stage was skipped preemptively.
	DegradedBreakerOpen = "breaker-open"
	// DegradedHardInstance: the graph's fingerprint is in the serving
	// layer's hard-instance cache — a previous full analysis on it degraded
	// or timed out — so the exact stage was skipped immediately.
	DegradedHardInstance = "hard-instance"
)

// Analyzer is the construct-once entry point of the toolkit: configure the
// platform, the bounds, and the optional simulation/exact stages with
// functional options, then call Analyze for one graph or AnalyzeBatch for
// many. An Analyzer is immutable after construction and safe for concurrent
// use.
//
//	an, err := hetrta.NewAnalyzer(
//	    hetrta.WithPlatform(hetrta.HeteroPlatform(4)),
//	    hetrta.WithBounds(hetrta.RhomBound(), hetrta.RhetBound(), hetrta.NaiveBound()),
//	    hetrta.WithExactBudget(200_000),
//	)
//	report, err := an.Analyze(ctx, g)
type Analyzer struct {
	platform    Platform
	bounds      []Bound
	policy      func() Policy
	exactOn     bool
	exactOpts   ExactOptions
	parallelism int
	validate    *ValidateOptions
	devices     *int // deferred WithDevices override

	degrade       *DegradeOptions
	forcedDegrade string // BoundsOnly reason; marks every report degraded
}

// DegradeOptions configures graceful degradation of the exact stage
// (WithDegradation). With degradation on, exhausting the exact search's
// expansion budget or its deadline slice no longer fails or blocks the
// analysis: the report comes back valid — bounds, transformation, and
// simulation intact — but marked Degraded with a machine-readable reason.
type DegradeOptions struct {
	// ExactSlice caps the wall-clock time of the exact stage. When it
	// expires before the search finishes, the report omits the Exact
	// section and is marked Degraded with DegradedExactDeadline. Zero
	// means no time slice (budget exhaustion still degrades).
	ExactSlice time.Duration
}

// Option configures an Analyzer at construction time.
type Option func(*Analyzer) error

// WithPlatform sets the execution platform. The default is the paper's
// evaluation midpoint: 4 host cores + 1 accelerator.
func WithPlatform(p Platform) Option {
	return func(a *Analyzer) error {
		a.platform = p
		return nil
	}
}

// WithDevices overrides the total device count of the platform (applied
// after WithPlatform regardless of option order). It requires a platform
// with at most one device class — with several, "the device count" is
// ambiguous; construct the class list explicitly instead.
func WithDevices(d int) Option {
	return func(a *Analyzer) error {
		if d < 0 {
			return fmt.Errorf("hetrta: negative device count %d", d)
		}
		a.devices = &d
		return nil
	}
}

// WithPolicy enables the simulation stage: every report gains a
// SimulationReport of τ (and τ' when a transformation applies) under the
// policy the factory returns. A factory is required — policies carry
// per-run state, and AnalyzeBatch simulates concurrently.
func WithPolicy(mk func() Policy) Option {
	return func(a *Analyzer) error {
		if mk == nil {
			return fmt.Errorf("hetrta: WithPolicy(nil)")
		}
		a.policy = mk
		return nil
	}
}

// WithExactBudget enables the exact minimum-makespan stage with the given
// branch-and-bound expansion budget (0 uses the solver default). The exact
// search honors Analyze's context: cancelling it aborts mid-search with
// context.Canceled.
func WithExactBudget(budget int64) Option {
	return func(a *Analyzer) error {
		if budget < 0 {
			return fmt.Errorf("hetrta: negative exact budget %d", budget)
		}
		a.exactOn = true
		a.exactOpts.MaxExpansions = budget
		return nil
	}
}

// WithExactOptions enables the exact minimum-makespan stage with full
// solver options (budget, memo limit, context poll interval, branching
// restriction). WithExactBudget is the common-case shorthand. The
// deprecated Parallelism field is ignored: the search is always serial.
func WithExactOptions(opts ExactOptions) Option {
	return func(a *Analyzer) error {
		if opts.MaxExpansions < 0 {
			return fmt.Errorf("hetrta: negative exact budget %d", opts.MaxExpansions)
		}
		if opts.MemoLimit < 0 {
			return fmt.Errorf("hetrta: negative exact memo limit %d", opts.MemoLimit)
		}
		if opts.CtxCheckEvery < 0 {
			return fmt.Errorf("hetrta: negative exact poll interval %d", opts.CtxCheckEvery)
		}
		a.exactOn = true
		a.exactOpts = opts
		return nil
	}
}

// WithDegradation enables graceful degradation of the exact stage: instead
// of failing (slice expiry) or silently returning an unproven result
// (budget exhaustion), Analyze returns a valid report marked Degraded with
// a machine-readable reason. It has no effect unless the exact stage is
// enabled (WithExactBudget / WithExactOptions).
func WithDegradation(d DegradeOptions) Option {
	return func(a *Analyzer) error {
		if d.ExactSlice < 0 {
			return fmt.Errorf("hetrta: negative exact slice %v", d.ExactSlice)
		}
		a.degrade = &d
		return nil
	}
}

// WithBounds selects the response-time bounds each report computes, in
// order. The default is DefaultBounds (Rhom + Rhet); pass any mix of the
// built-ins and custom Bound implementations. Names must be unique.
func WithBounds(bs ...Bound) Option {
	return func(a *Analyzer) error {
		if len(bs) == 0 {
			return fmt.Errorf("hetrta: WithBounds needs at least one bound")
		}
		a.bounds = append([]Bound(nil), bs...)
		return nil
	}
}

// WithParallelism sets the AnalyzeBatch worker-pool size. The default (0)
// is one worker per CPU; 1 forces sequential processing. Output order is
// deterministic at any parallelism.
func WithParallelism(n int) Option {
	return func(a *Analyzer) error {
		if n < 0 {
			return fmt.Errorf("hetrta: negative parallelism %d", n)
		}
		a.parallelism = n
		return nil
	}
}

// WithValidation makes every Analyze call validate the graph first under
// the given options (e.g. PaperModel()). The default performs no structural
// validation beyond what the analyses themselves require.
func WithValidation(v ValidateOptions) Option {
	return func(a *Analyzer) error {
		a.validate = &v
		return nil
	}
}

// NewAnalyzer builds an Analyzer from the options, validating the resulting
// configuration.
func NewAnalyzer(opts ...Option) (*Analyzer, error) {
	a := &Analyzer{
		platform: HeteroPlatform(4),
		bounds:   DefaultBounds(),
	}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	if a.devices != nil {
		p, err := a.platform.WithDeviceCount(*a.devices)
		if err != nil {
			return nil, fmt.Errorf("hetrta: %w", err)
		}
		a.platform = p
	}
	if err := a.platform.Validate(); err != nil {
		return nil, fmt.Errorf("hetrta: %w", err)
	}
	seen := map[string]bool{}
	for _, b := range a.bounds {
		if seen[b.Name()] {
			return nil, fmt.Errorf("hetrta: duplicate bound %q", b.Name())
		}
		seen[b.Name()] = true
	}
	return a, nil
}

// Parallelism returns the AnalyzeBatch worker-pool size set by
// WithParallelism; 0 means one worker per CPU.
func (a *Analyzer) Parallelism() int { return a.parallelism }

// Platform returns the analyzer's configured platform.
func (a *Analyzer) Platform() Platform { return a.platform }

// ExactEnabled reports whether the exact minimum-makespan stage is
// configured (WithExactBudget / WithExactOptions).
func (a *Analyzer) ExactEnabled() bool { return a.exactOn }

// BoundsOnly returns a degraded variant of the analyzer: identical
// configuration except the exact stage is disabled, and every report it
// produces is marked Degraded with the given reason (one of the Degraded*
// constants). The serving layer uses it to answer with safe bounds when
// the full pipeline is skipped — breaker open, or the graph is a known
// hard instance. The receiver is not modified.
func (a *Analyzer) BoundsOnly(reason string) *Analyzer {
	d := *a
	d.exactOn = false
	d.exactOpts = ExactOptions{}
	d.forcedDegrade = reason
	return &d
}

// AlgorithmVersion identifies the code that produces served bytes: the
// bounds, the simulation, the exact search, the fingerprint and the
// report and admit-report wire formats. Signature leads with it, so the
// serving cache keys and the store log generation change with it, and a
// store log written by an older binary is discarded at boot instead of
// served. Bump it by hand in any change that alters a served byte;
// TestServedBytesVersioned fails when a byte-contract golden moves
// without a bump.
const AlgorithmVersion = 2

// Signature returns a stable string identifying every configuration input
// that can influence a Report: AlgorithmVersion, the platform's full class
// list, the bound set (in order), the simulation policy, the exact-stage
// options, and the validation options. Two Analyzers with equal signatures produce
// byte-identical reports for equal graphs, so (Graph.Fingerprint,
// Signature) is a sound cache key — the serving layer (internal/service)
// keys its result cache exactly this way. Batch parallelism is
// deliberately excluded: batch output is deterministic at any pool size.
// The exact stage needs no such exclusion: its search is serial, so every
// field of its result, Expansions included, follows from the graph and
// the options in the signature.
func (a *Analyzer) Signature() string {
	var b strings.Builder
	fmt.Fprintf(&b, "v=%d;plat=", AlgorithmVersion)
	for i, c := range a.platform.Classes {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", c.Name, c.Count)
	}
	b.WriteString(";bounds=")
	for i, bd := range a.bounds {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(bd.Name())
	}
	if a.policy != nil {
		fmt.Fprintf(&b, ";policy=%s", a.policy().Name())
	}
	if a.exactOn {
		fmt.Fprintf(&b, ";exact=%d/%d/%d/%t",
			a.exactOpts.MaxExpansions, a.exactOpts.MemoLimit,
			a.exactOpts.CtxCheckEvery, a.exactOpts.Unrestricted)
	}
	if a.validate != nil {
		fmt.Fprintf(&b, ";validate=%t/%t/%t/%t",
			a.validate.RequireSingleSourceSink, a.validate.RequireReduced,
			a.validate.RequireSingleOffload, a.validate.AllowZeroWCET)
	}
	if a.degrade != nil {
		fmt.Fprintf(&b, ";degrade=%d", a.degrade.ExactSlice.Nanoseconds())
	}
	if a.forcedDegrade != "" {
		fmt.Fprintf(&b, ";forced=%s", a.forcedDegrade)
	}
	return b.String()
}

// Analyze runs the configured pipeline on one task graph and returns its
// Report. The input graph is not modified: analysis runs on a transitively
// reduced clone, as Algorithm 1 requires. Cancelling ctx aborts promptly
// with the context's error — including mid-search inside the exact oracle.
func (a *Analyzer) Analyze(ctx context.Context, g *Graph) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("hetrta: Analyze(nil graph)")
	}
	if a.validate != nil {
		if err := g.Validate(*a.validate); err != nil {
			return nil, err
		}
	}

	// The reduced clone and the iterated Algorithm 1 (every offloaded
	// region gated, the paper's single-offload model being the one-step
	// case), computed once and shared by every bound.
	in, removed, err := rta.PrepareInput(g)
	if err != nil {
		return nil, err
	}
	in.Platform = a.platform
	work := in.Graph

	rep := &Report{Platform: a.platform}
	rep.Graph = GraphSummary{
		Nodes:        work.NumNodes(),
		Edges:        work.NumEdges(),
		ReducedEdges: removed,
		Volume:       work.Volume(),
		CriticalPath: work.CriticalPathLength(),
	}
	offs := work.OffloadNodes()
	rep.Graph.Offloads = len(offs)
	if len(offs) == 1 {
		vOff := offs[0]
		frac := 0.0
		if v := work.Volume(); v > 0 {
			frac = float64(work.WCET(vOff)) / float64(v)
		}
		rep.Graph.Offload = &OffloadSummary{
			Node: vOff,
			Name: work.Name(vOff),
			COff: work.WCET(vOff),
			Frac: frac,
		}
	}

	if mt := in.Multi; mt != nil {
		rep.MultiTransformResult = mt
		rep.Transforms = make([]TransformStepSummary, len(mt.Steps))
		for i, step := range mt.Steps {
			rep.Transforms[i] = TransformStepSummary{
				Offload: step.Offload,
				Name:    work.Name(step.Offload),
				Class:   work.Class(step.Offload),
				COff:    work.WCET(step.Offload),
				Sync:    step.Sync,
				Gate:    mt.Syncs[step.Offload],
				LenPar:  step.Par.CriticalPathLength(),
				VolPar:  step.Par.Volume(),
			}
		}
		if tr := in.Transform; tr != nil {
			rep.TransformResult = tr
			rep.Transform = &TransformSummary{
				Sync:     tr.Sync,
				LenPrime: tr.Transformed.CriticalPathLength(),
				VolPrime: tr.Transformed.Volume(),
				ParNodes: tr.ParSet.Sorted(),
				LenPar:   tr.Par.CriticalPathLength(),
				VolPar:   tr.Par.Volume(),
			}
		}
	}

	for _, b := range a.bounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := b.Compute(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("hetrta: bound %q: %w", b.Name(), err)
		}
		if res.Name == "" {
			res.Name = b.Name()
		}
		rep.Bounds = append(rep.Bounds, res)
	}

	if a.policy != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sim, err := sched.Simulate(work, a.platform, a.policy())
		if err != nil {
			return nil, err
		}
		rep.SimOriginal = sim
		rep.Simulation = &SimulationReport{Policy: sim.Policy, Makespan: sim.Makespan}
		if rep.MultiTransformResult != nil {
			simT, err := sched.Simulate(rep.MultiTransformResult.Transformed, a.platform, a.policy())
			if err != nil {
				return nil, err
			}
			rep.SimTransformed = simT
			rep.Simulation.MakespanTransformed = simT.Makespan
		}
	}

	if a.exactOn {
		exactCtx := ctx
		var cancel context.CancelFunc
		if a.degrade != nil && a.degrade.ExactSlice > 0 {
			exactCtx, cancel = context.WithTimeout(ctx, a.degrade.ExactSlice)
		}
		opt, err := exact.MinMakespan(exactCtx, work, a.platform, a.exactOpts)
		if cancel != nil {
			cancel()
		}
		switch {
		case err == nil:
			rep.ExactResult = opt
			rep.Exact = &ExactReport{
				Makespan:   opt.Makespan,
				Status:     opt.Status.String(),
				LowerBound: opt.LowerBound,
				Expansions: opt.Expansions,
			}
			if a.degrade != nil && opt.Status != exact.Optimal {
				// The budget expired: the makespan is feasible but unproven.
				// The bracket [LowerBound, Makespan] is still safe, so the
				// Exact section stays — flagged, not dropped.
				rep.Degraded = true
				rep.DegradedReason = DegradedExactBudget
			}
		case a.degrade != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// Only the stage's own slice expired — the caller's context is
			// intact. Degrade to a bounds-only report instead of failing.
			rep.Degraded = true
			rep.DegradedReason = DegradedExactDeadline
		default:
			return nil, err
		}
	}
	if a.forcedDegrade != "" {
		rep.Degraded = true
		rep.DegradedReason = a.forcedDegrade
	}

	return rep, nil
}

// AnalyzeBatch analyzes many graphs on the analyzer's worker pool
// (WithParallelism) and returns one Report per input, in input order —
// the order is deterministic at any parallelism because workers only ever
// write their own slot. Per-graph failures do not abort the batch: the
// failing graph's Report carries the error in Err. The returned error is
// non-nil only when ctx is cancelled, in which case reports of unfinished
// graphs record the cancellation.
func (a *Analyzer) AnalyzeBatch(ctx context.Context, gs []*Graph) ([]*Report, error) {
	reports := make([]*Report, len(gs))
	err := batch.Run(ctx, len(gs), a.parallelism, func(ctx context.Context, i int) error {
		rep, err := a.Analyze(ctx, gs[i])
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				reports[i] = &Report{Platform: a.platform, Err: ctxErr.Error()}
				return ctxErr
			}
			reports[i] = &Report{Platform: a.platform, Err: err.Error()}
			return nil
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		// Only context cancellation propagates; fill the slots the pool
		// never dispatched.
		for i, r := range reports {
			if r == nil {
				reports[i] = &Report{Platform: a.platform, Err: err.Error()}
			}
		}
		return reports, err
	}
	return reports, nil
}
