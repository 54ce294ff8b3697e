package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// runDroppedErr (rule "droppederr") flags calls whose error result is silently discarded:
// either the call is an expression statement (including `defer`/`go`), or
// the error position is assigned to the blank identifier. Test files are
// never loaded by the engine, and packages under examples/ are exempt —
// everywhere else a dropped error has already cost this repo real bugs
// (silently ignored decode failures surface as corrupt golden frames).
//
// A small allowlist covers calls whose error is guaranteed nil by API
// contract (strings.Builder, bytes.Buffer and hash.Hash writes) and the
// fmt print family, where checking is noise.
func runDroppedErr(p *Pass) []Diagnostic {
	if strings.HasPrefix(p.Path, "asv/examples") {
		return nil
	}
	var out []Diagnostic
	report := func(call *ast.CallExpr, how string) {
		out = append(out, p.diag(call.Pos(), "droppederr",
			"error result of %s is %s; handle it or suppress with an //asvlint:ignore comment explaining why", callName(p, call), how))
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if dropsError(p, call) {
						report(call, "discarded")
					}
					return false
				}
			case *ast.DeferStmt:
				if dropsError(p, n.Call) {
					report(n.Call, "discarded by defer")
				}
				return true
			case *ast.GoStmt:
				if dropsError(p, n.Call) {
					report(n.Call, "discarded by go")
				}
				return true
			case *ast.AssignStmt:
				// Single call on the RHS: match each blank LHS against the
				// call's error result positions.
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && !allowlisted(p, call) {
						for _, i := range resultErrorIndexes(p.Info, call) {
							if i < len(n.Lhs) && isBlank(n.Lhs[i]) {
								report(call, "assigned to _")
							}
						}
					}
					return true
				}
				for i, rhs := range n.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || allowlisted(p, call) {
						continue
					}
					if idx := resultErrorIndexes(p.Info, call); len(idx) == 1 && idx[0] == 0 &&
						i < len(n.Lhs) && isBlank(n.Lhs[i]) {
						report(call, "assigned to _")
					}
				}
			}
			return true
		})
	}
	return out
}

// dropsError reports whether the bare call returns an error that nothing
// consumes.
func dropsError(p *Pass, call *ast.CallExpr) bool {
	return len(resultErrorIndexes(p.Info, call)) > 0 && !allowlisted(p, call)
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// callName renders a call target for the diagnostic message.
func callName(p *Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if fn := calleeFunc(p.Info, call); fn != nil {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return "(" + sig.Recv().Type().String() + ")." + fn.Name()
			}
			if fn.Pkg() != nil {
				return fn.Pkg().Name() + "." + fn.Name()
			}
		}
		return fun.Sel.Name
	}
	return "call"
}

// allowlisted reports whether the call's error is nil by documented contract
// or conventionally unchecked.
func allowlisted(p *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Prefer the static receiver type at the call site: a hash.Hash32's
		// Write resolves to io.Writer.Write through interface embedding, but
		// the caller sees a hash, whose Write never fails by contract.
		recv := sig.Recv().Type()
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := p.Info.Selections[sel]; ok {
				recv = s.Recv()
			}
		}
		// strings.Builder and bytes.Buffer writes are documented to always
		// return a nil error; hash.Hash.Write likewise.
		if named, ok := namedFrom(recv, "strings"); ok && named.Obj().Name() == "Builder" {
			return true
		}
		if named, ok := namedFrom(recv, "bytes"); ok && named.Obj().Name() == "Buffer" {
			return true
		}
		if fn.Name() == "Write" {
			if named, _ := namedFrom(recv, ""); named != nil && named.Obj().Pkg() != nil &&
				strings.HasPrefix(named.Obj().Pkg().Path(), "hash") {
				return true
			}
		}
		return false
	}
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		return strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")
	}
	return false
}
