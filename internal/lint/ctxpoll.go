package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// oraclePackages lists the search oracles whose loops can run effectively
// unbounded: promptness of cancellation there is a serving-layer contract
// (a hung-up HTTP client must abort into the oracle within one poll
// interval). Other packages opt in with //hetrta:oracle.
var oraclePackages = map[string]bool{
	"repro/internal/exact": true,
}

// Ctxpoll enforces the oracle cancellation discipline:
//
//   - an exported function that accepts a context.Context must use it
//     (polling it or passing it on) — accepting one just to drop it turns
//     the serving layer's cancellation into a no-op;
//   - every unbounded loop (`for { ... }` or `for cond { ... }`) must
//     contain a dominating poll: a ctx.Err()/ctx.Done() check executed on
//     every iteration, a counter-gated check (`if n%k == 0 { ctx.Err() }`
//     or a bitmask equivalent), a call that hands a context to a callee,
//     or a call to a same-package function that itself polls a context —
//     directly or through further same-package calls. The last form is the
//     shared-state worker pattern: a search worker holds its context in a
//     struct field next to an atomic expansion counter, and its loop
//     delegates the counter-gated poll to the recursive search it calls,
//     so no context value ever crosses the call. A poll hidden behind an
//     unrelated branch does not dominate and does not count.
//
// The //lint:polled <why> hatch records loops that are bounded for a
// structural reason the analyzer cannot see.
var Ctxpoll = &analysis.Analyzer{
	Name: "ctxpoll",
	Doc:  "enforces prompt context cancellation in the exact search oracle",
	Run:  runCtxpoll,
}

func runCtxpoll(pass *analysis.Pass) error {
	inScope := oraclePackages[pass.Pkg.Path()]
	var pollers map[types.Object]bool // built lazily: only checked files need it
	for _, f := range pass.Files {
		if !inScope && !fileHasDirective(f, "hetrta:oracle") {
			continue
		}
		if pollers == nil {
			pollers = packagePollers(pass)
		}
		escapes := collectEscapes(pass.Fset, f, "polled")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.IsExported() {
				checkCtxUse(pass, fd)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok || loop.Init != nil || loop.Post != nil {
					return true // three-clause loops advance a bounded induction variable
				}
				if !hasDominatingPoll(pass, pollers, loop.Body) {
					checkEscape(pass, escapes, "polled", loop.Pos(),
						"unbounded loop without a dominating context poll: add a ctx.Err() check (optionally counter-gated, e.g. if n%k == 0), or annotate //lint:polled <why> if the loop is structurally bounded")
				}
				return true
			})
		}
	}
	return nil
}

// checkCtxUse reports exported functions that accept a context.Context and
// never touch it.
func checkCtxUse(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				pass.Reportf(name.Pos(), "exported %s discards its context.Context parameter; thread it into the search or drop the parameter", fd.Name.Name)
				continue
			}
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			used := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					used = true
					return false
				}
				return !used
			})
			if !used {
				pass.Reportf(name.Pos(), "exported %s drops its context.Context parameter %s on the floor; poll it or pass it on", fd.Name.Name, name.Name)
			}
		}
	}
}

// packagePollers computes the set of package-level functions and methods
// whose body polls a context — directly (ctx.Err/Done on a context-typed
// expression, or a call handing a context along), or transitively, by
// calling another function of the same package that does. A search that
// keeps its context in a struct field needs the transitive closure: a loop
// calls a helper, the helper calls the recursive search, and only the
// search touches the context field, gated on its expansion counter.
func packagePollers(pass *analysis.Pass) map[types.Object]bool {
	type fn struct {
		obj  types.Object
		body *ast.BlockStmt
	}
	var fns []fn
	pollers := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			if blockPollsAnywhere(pass, nil, fd.Body) {
				pollers[obj] = true
			} else {
				fns = append(fns, fn{obj, fd.Body})
			}
		}
	}
	// Propagate through same-package calls to a fixpoint. Each round either
	// grows pollers or terminates, so the loop runs at most len(fns) times.
	for changed := true; changed; {
		changed = false
		rest := fns[:0]
		for _, f := range fns {
			calls := false
			ast.Inspect(f.body, func(n ast.Node) bool {
				if calls {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok && pollers[calleeObj(pass, call)] {
					calls = true
					return false
				}
				return true
			})
			if calls {
				pollers[f.obj] = true
				changed = true
			} else {
				rest = append(rest, f)
			}
		}
		fns = rest
	}
	return pollers
}

// calleeObj resolves the object a call statically targets (function or
// method); nil for indirect calls through values.
func calleeObj(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// hasDominatingPoll reports whether the loop body polls a context on every
// iteration: an unconditional poll statement, a select on ctx.Done(), a
// counter-gated if containing a poll, or an unconditional call that passes
// a context along or targets a same-package (transitive) poller.
func hasDominatingPoll(pass *analysis.Pass, pollers map[types.Object]bool, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.IfStmt:
			// `if err := ctx.Err(); err != nil` — the poll sits in Init/Cond
			// and executes unconditionally.
			if s.Init != nil && stmtPolls(pass, pollers, s.Init) {
				return true
			}
			if exprPolls(pass, pollers, s.Cond) {
				return true
			}
			// Counter-gated poll: `if n%k == 0 { ... ctx.Err() ... }`. The
			// modulo (or bitmask) gate is itself the poll interval; any
			// other branch condition hides the poll from most iterations.
			if counterGated(s.Cond) && blockPollsAnywhere(pass, pollers, s.Body) {
				return true
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if comm, ok := c.(*ast.CommClause); ok && comm.Comm != nil && stmtPolls(pass, pollers, comm.Comm) {
					return true
				}
			}
		default:
			if stmtPolls(pass, pollers, stmt) {
				return true
			}
		}
	}
	return false
}

// stmtPolls reports whether a straight-line statement (no nested control
// flow considered) contains a poll expression.
func stmtPolls(pass *analysis.Pass, pollers map[types.Object]bool, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return exprPolls(pass, pollers, s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if exprPolls(pass, pollers, rhs) {
				return true
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if exprPolls(pass, pollers, r) {
				return true
			}
		}
	case *ast.DeclStmt:
		polls := false
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && exprPolls(pass, pollers, e) {
				polls = true
				return false
			}
			return !polls
		})
		return polls
	}
	return false
}

// exprPolls reports whether e (or a subexpression outside nested function
// literals) polls a context: ctx.Err(), ctx.Done(), <-ctx.Done(), a call
// receiving a context argument, or a call to a function in pollers
// (same-package delegation — the callee owns the poll; either way the
// callee is checked wherever it lives in scope).
func exprPolls(pass *analysis.Pass, pollers map[types.Object]bool, e ast.Expr) bool {
	if e == nil {
		return false
	}
	polls := false
	ast.Inspect(e, func(n ast.Node) bool {
		if polls {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // deferred execution: not a poll of this iteration
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContextExpr(pass, sel.X) {
					polls = true
					return false
				}
			}
			if pollers[calleeObj(pass, n)] {
				polls = true
				return false
			}
			for _, arg := range n.Args {
				if isContextExpr(pass, arg) {
					polls = true
					return false
				}
			}
		}
		return true
	})
	return polls
}

// blockPollsAnywhere reports whether any expression in the block polls,
// regardless of dominance — used under a counter gate (which already
// establishes the poll interval) and to seed the packagePollers base set.
func blockPollsAnywhere(pass *analysis.Pass, pollers map[types.Object]bool, block *ast.BlockStmt) bool {
	polls := false
	ast.Inspect(block, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && exprPolls(pass, pollers, e) {
			polls = true
		}
		return !polls
	})
	return polls
}

// counterGated reports whether cond has the shape of a poll-interval gate:
// it contains a modulo or bitmask operation (n%k == 0, n&mask == 0).
func counterGated(cond ast.Expr) bool {
	gated := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.REM || b.Op == token.AND) {
			gated = true
		}
		return !gated
	})
	return gated
}

// isContextExpr reports whether e's static type is context.Context.
func isContextExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && isContextType(tv.Type)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
