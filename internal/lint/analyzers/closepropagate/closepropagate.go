// Package closepropagate enforces the closing half of the stream contract —
// the PR 2 Collect/drain bug class, made compile-time: the error of a
// stream's Close or CloseVec must be propagated, never discarded. A bare
// statement `rows.Close()`, a `_ = rows.Close()`, or a direct
// `defer rows.Close()` throws away the only signal a cursor, a worker pool or
// a spill file has for reporting teardown failure. The accepted idiom is the
// drain pattern:
//
//	defer func() {
//		if cerr := rows.Close(); cerr != nil && err == nil {
//			err = cerr
//		}
//	}()
//
// That every stream a run opens is closed, exactly once, is not checked here:
// TestEveryStreamClosedOnce asserts it on every plan of the differential
// corpus, through the one place streams are opened (exec.Ctx.open).
package closepropagate

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/opshape"
)

// Analyzer is the closepropagate check.
var Analyzer = &analysis.Analyzer{
	Name: "closepropagate",
	Doc:  "the Close/CloseVec error of a row or batch stream must be propagated, not discarded",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		checkDiscards(pass, file)
	}
	return nil, nil
}

// isStreamClose reports whether call is x.Close() or x.CloseVec() on a
// stream-shaped receiver, i.e. a call whose error result matters.
func isStreamClose(pass *analysis.Pass, call *ast.CallExpr) (*ast.SelectorExpr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "CloseVec") {
		return nil, false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, false
	}
	if !opshape.IsStream(s.Recv()) {
		return nil, false
	}
	// Only calls that actually return an error can discard one.
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return nil, false
	}
	return sel, true
}

// checkDiscards flags the three discard shapes.
func checkDiscards(pass *analysis.Pass, file *ast.File) {
	report := func(sel *ast.SelectorExpr, how string) {
		pass.Reportf(sel.Sel.Pos(),
			"%s discards the %s error of a stream; propagate it "+
				"(e.g. `if cerr := x.%s(); cerr != nil && err == nil { err = cerr }`)",
			how, sel.Sel.Name, sel.Sel.Name)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if sel, ok := isStreamClose(pass, call); ok {
					report(sel, "bare statement")
				}
			}
		case *ast.DeferStmt:
			if sel, ok := isStreamClose(pass, st.Call); ok {
				report(sel, "direct defer")
			}
			// A deferred closure is fine — its body is walked normally.
		case *ast.GoStmt:
			if sel, ok := isStreamClose(pass, st.Call); ok {
				report(sel, "go statement")
			}
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(st.Lhs) {
					continue
				}
				if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					if sel, ok := isStreamClose(pass, call); ok {
						report(sel, "assignment to _")
					}
				}
			}
		}
		return true
	})
}
