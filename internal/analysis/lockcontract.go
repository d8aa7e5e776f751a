package analysis

import (
	"go/ast"
	"go/types"
)

// Lockcontract enforces a struct's documented locking contract — for the
// Engine, that its writer-only fields (the negotiation in flight, the
// journal, the fingerprint memo) are touched only under the writer mutex.
// Fields annotated `//grlint:guardedby <mutex>` declare which mutex field
// guards them; every *exported* method of that struct that touches a
// guarded field through its receiver must acquire the named mutex in its
// own body: `recv.mu.RLock()` or `recv.mu.Lock()` for reads,
// `recv.mu.Lock()` (exclusive) if any touched field is written.
//
// Unexported methods are deliberately out of scope: the codebase's
// convention is that unexported helpers (negotiateConfig, installNegotiated)
// run under a lock their exported caller holds, and that convention is
// checked where it is visible — at the exported surface. A method whose
// locking is managed elsewhere carries //grlint:locked <reason>.
var Lockcontract = &Analyzer{
	Name: "lockcontract",
	Doc: "flags exported methods touching //grlint:guardedby fields without " +
		"acquiring the named mutex in the right mode; annotate " +
		"//grlint:locked <reason> for caller-locked methods",
	Run: runLockcontract,
}

func runLockcontract(pass *Pass) (any, error) {
	guarded := guardedFields(pass)
	if len(guarded) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkMethod(pass, fd, guarded)
		}
	}
	return nil, nil
}

// guardedFields maps each //grlint:guardedby-annotated struct field to the
// name of its guarding mutex field.
func guardedFields(pass *Pass) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := pass.Directive(field, "guardedby")
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// checkMethod verifies one exported method against the contract.
func checkMethod(pass *Pass, fd *ast.FuncDecl, guarded map[*types.Var]string) {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	recvObj := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil {
		return
	}

	// Which guarded fields does the body touch through the receiver, and is
	// any of them written?
	writes := writeTargets(fd.Body)
	var touched []*types.Var
	touchedMu := ""
	wrote := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[base] != recvObj {
			return true
		}
		fieldObj, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		mu, ok := guarded[fieldObj]
		if !ok {
			return true
		}
		touched = append(touched, fieldObj)
		touchedMu = mu
		if writes[sel] {
			wrote = true
		}
		return true
	})
	if len(touched) == 0 {
		return
	}
	if _, ok := pass.Directive(fd, "locked"); ok {
		return
	}

	shared, exclusive := lockCalls(pass, fd.Body, recvObj, touchedMu)
	switch {
	case wrote && !exclusive:
		pass.Reportf(fd.Name.Pos(), "method %s writes guarded field %s without %s.Lock() (exclusive mode required for writes)", fd.Name.Name, touched[0].Name(), touchedMu)
	case !wrote && !shared && !exclusive:
		pass.Reportf(fd.Name.Pos(), "method %s reads guarded field %s without acquiring %s (RLock or Lock); annotate //grlint:locked <reason> if callers hold it", fd.Name.Name, touched[0].Name(), touchedMu)
	}
}

// writeTargets collects expressions appearing as assignment/inc-dec targets
// anywhere under body.
func writeTargets(body ast.Node) map[ast.Expr]bool {
	out := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				out[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			out[ast.Unparen(n.X)] = true
		case *ast.UnaryExpr:
			// &recv.field escaping counts as a potential write.
			if n.Op.String() == "&" {
				out[ast.Unparen(n.X)] = true
			}
		}
		return true
	})
	return out
}

// lockCalls reports whether body calls recv.<mu>.RLock() (shared) and/or
// recv.<mu>.Lock() (exclusive).
func lockCalls(pass *Pass, body ast.Node, recvObj types.Object, mu string) (shared, exclusive bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != mu {
			return true
		}
		base, ok := ast.Unparen(inner.X).(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[base] != recvObj {
			return true
		}
		switch sel.Sel.Name {
		case "RLock":
			shared = true
		case "Lock":
			exclusive = true
		}
		return true
	})
	return shared, exclusive
}
