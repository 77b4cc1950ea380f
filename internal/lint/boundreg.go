package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Boundreg enforces the registration invariant behind the dominance
// lattice (exact ≤ sim ≤ bound): every type implementing the Bound
// interface — structurally, Name() string plus
// Compute(context.Context, BoundInput) (BoundResult, error) — must be
// declared, under its static Name() string, in the bound registry of its
// own package: a map variable annotated //hetrta:registry bounds. Each
// entry states the bound's relation to the simulated makespan, which the
// 520-instance crosscheck sweep asserts, and where it is safe, which
// decides whether it may enter admission minima.
//
// This is the machine check for the failure mode PR 5 caught by sweep
// luck: Rhom entering multi-offload admission without a safety
// declaration. The check is per package and fails closed: a Bound declared
// in a package without a registry is reported, since no table there can
// vouch for it. A bound whose Name() is not a compile-time constant cannot
// be checked and is reported; //lint:boundreg <why> exempts deliberately
// unregistered implementations (e.g. decorators).
var Boundreg = &analysis.Analyzer{
	Name: "boundreg",
	Doc:  "every Bound implementation must be declared in the bound registry of its package",
	Run:  runBoundreg,
}

func runBoundreg(pass *analysis.Pass) error {
	registry, found := collectRegistry(pass)
	for _, impl := range findBoundImpls(pass) {
		switch {
		case impl.exempt:
		case !found:
			pass.Reportf(impl.pos, "Bound implementation %s is declared outside the bound registry's package (//hetrta:registry bounds): declare bounds beside their registry entry so the crosscheck sweep and admission see them", impl.typeName)
		case impl.name == "":
			pass.Reportf(impl.pos, "Bound implementation %s: Name() does not return a compile-time constant, so registration cannot be checked; return a constant or annotate the type //lint:boundreg <why>", impl.typeName)
		case !registry[impl.name]:
			pass.Reportf(impl.pos, "Bound %q (%s) is missing from the bound registry (//hetrta:registry bounds): declare its relation to the simulated makespan and where it is safe (cf. RhomSafeFor and DESIGN.md §10.3)", impl.name, impl.typeName)
		}
	}
	return nil
}

// collectRegistry finds the //hetrta:registry bounds map variables of the
// package and returns the set of string keys they declare; found reports
// whether the package has a registry at all.
func collectRegistry(pass *analysis.Pass) (names map[string]bool, found bool) {
	names = map[string]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				kind := registryDirective(vs.Doc)
				if kind == "" {
					kind = registryDirective(gd.Doc)
				}
				if kind != "bounds" {
					continue
				}
				found = true
				for _, v := range vs.Values {
					cl, ok := v.(*ast.CompositeLit)
					if !ok {
						pass.Reportf(v.Pos(), "//hetrta:registry bounds variable must be initialized with a map composite literal so the key set is statically known")
						continue
					}
					for _, elt := range cl.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if name, ok := constString(pass, kv.Key); ok {
							names[name] = true
						} else {
							pass.Reportf(kv.Key.Pos(), "//hetrta:registry bounds key must be a compile-time string constant")
						}
					}
				}
			}
		}
	}
	return names, found
}

// boundImpl is one detected Bound implementation.
type boundImpl struct {
	typeName string
	name     string // static Name() result; "" when not constant
	pos      token.Pos
	exempt   bool
}

// findBoundImpls detects package-local named types that structurally
// implement the Bound interface and resolves their static bound names.
// Types declared in _test.go files are skipped: test scaffolding may fake
// bounds freely.
func findBoundImpls(pass *analysis.Pass) []boundImpl {
	type methods struct {
		name    *ast.FuncDecl
		compute *ast.FuncDecl
	}
	byType := map[string]*methods{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			recv := recvTypeName(fd.Recv.List[0].Type)
			if recv == "" {
				continue
			}
			m := byType[recv]
			if m == nil {
				m = &methods{}
				byType[recv] = m
			}
			switch fd.Name.Name {
			case "Name":
				m.name = fd
			case "Compute":
				m.compute = fd
			}
		}
	}

	var impls []boundImpl
	names := make([]string, 0, len(byType))
	for n := range byType { //lint:ordered sorted before use
		names = append(names, n)
	}
	sort.Strings(names)
	for _, typeName := range names {
		m := byType[typeName]
		if m.name == nil || m.compute == nil {
			continue
		}
		obj, ok := pass.Pkg.Scope().Lookup(typeName).(*types.TypeName)
		if !ok || strings.HasSuffix(pass.Fset.Position(obj.Pos()).Filename, "_test.go") {
			continue
		}
		if !implementsBound(obj.Type()) {
			continue
		}
		impl := boundImpl{typeName: typeName, pos: obj.Pos()}
		if name, ok := staticNameReturn(pass, m.name); ok {
			impl.name = name
		}
		// The hatch sits on the type declaration line (or above it).
		file := fileOf(pass, obj.Pos())
		if file != nil {
			idx := collectEscapes(pass.Fset, file, "boundreg")
			if e, ok := idx.at(pass.Fset.Position(obj.Pos()).Line); ok {
				if !e.justified {
					pass.Reportf(e.pos, "escape hatch //lint:boundreg requires a justification (//lint:boundreg <why>)")
				}
				impl.exempt = true
			}
		}
		impls = append(impls, impl)
	}
	return impls
}

// implementsBound structurally matches the Bound interface: a Name() string
// method and a Compute method of shape
// (context.Context, <...>BoundInput) (<...>BoundResult, error) in the
// method set of T or *T. Matching by method shape rather than by the
// interface object keeps the analyzer usable from fixtures that declare
// their own miniature Bound world.
func implementsBound(t types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	var nameOK, computeOK bool
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch fn.Name() {
		case "Name":
			nameOK = sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
				types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
		case "Compute":
			computeOK = sig.Params().Len() == 2 && sig.Results().Len() == 2 &&
				isContextType(sig.Params().At(0).Type()) &&
				namedCalled(sig.Params().At(1).Type(), "BoundInput") &&
				namedCalled(sig.Results().At(0).Type(), "BoundResult") &&
				isErrorType(sig.Results().At(1).Type())
		}
	}
	return nameOK && computeOK
}

// staticNameReturn extracts the constant string a Name() method returns.
func staticNameReturn(pass *analysis.Pass, fd *ast.FuncDecl) (string, bool) {
	if fd.Body == nil || len(fd.Body.List) != 1 {
		return "", false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return "", false
	}
	return constString(pass, ret.Results[0])
}

// constString resolves e to a compile-time string constant.
func constString(pass *analysis.Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

func recvTypeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	}
	return ""
}

func namedCalled(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == name
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func fileOf(pass *analysis.Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}
