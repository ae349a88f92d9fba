// Package opshape recognizes the engine's stream shapes from type structure
// alone: the row stream of a run has Next and Close methods, the batch stream
// NextBatch and CloseVec, with Close returning exactly error (the exec.Rows
// and exec.Batches contracts). Matching structurally — by method names and
// the Close signature, not by named interface identity — keeps the analyzers
// working on any module, including the synthetic testdata packages the
// analysistest suites and the driver test load, which define their own toy
// streams.
package opshape

import "go/types"

// hasMethod reports whether t's method set contains name, optionally
// requiring the func() error signature (the Close/CloseVec contract).
func hasMethod(t types.Type, name string, wantErrResult bool) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		f, ok := ms.At(i).Obj().(*types.Func)
		if !ok || f.Name() != name {
			continue
		}
		if !wantErrResult {
			return true
		}
		sig := f.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			return false
		}
		named, ok := sig.Results().At(0).Type().(*types.Named)
		return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
	}
	return false
}

// streamShape reports whether t (as given — pass a pointer type to get the
// full method set) carries the row or batch stream method pair.
func streamShape(t types.Type) bool {
	return hasMethod(t, "Close", true) && hasMethod(t, "Next", false) ||
		hasMethod(t, "CloseVec", true) && hasMethod(t, "NextBatch", false)
}

// IsStream reports whether values of type t behave as a row or batch stream:
// t itself, or its pointer (for named non-pointer types), has the method
// pair. Interfaces qualify when they declare it.
func IsStream(t types.Type) bool {
	if t == nil {
		return false
	}
	if streamShape(t) {
		return true
	}
	// A named struct whose methods live on the pointer receiver.
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			return streamShape(types.NewPointer(t))
		}
	}
	return false
}

// IsNamedIn reports whether t (possibly behind a pointer) is the named type
// pkgSuffix.name — matching the defining package by import-path suffix so
// the check is independent of the module name.
func IsNamedIn(t types.Type, pkgSuffix, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || len(path) > len(pkgSuffix) && path[len(path)-len(pkgSuffix)-1] == '/' &&
		path[len(path)-len(pkgSuffix):] == pkgSuffix
}
