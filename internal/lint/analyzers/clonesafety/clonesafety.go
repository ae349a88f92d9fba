// Package clonesafety enforces the structural convention exec.CloneTree
// rests on: for every operator struct, exported fields are immutable
// plan-time configuration (copied into clones and therefore shared), and
// unexported fields are per-run iterator state (zeroed in clones). The plan
// cache executes reflection-cloned trees concurrently, so a violation is a
// cross-request data race that no test deterministically reaches.
//
// Three violation shapes are flagged:
//
//  1. An operator type whose iterator methods are on the value receiver
//     while it carries unexported state: cloneAny only clones
//     pointer-to-struct nodes, so such an operator is returned as-is and
//     every "independent" execution shares its iterator state.
//
//  2. An exported field whose type holds child operators inside a container
//     (slice, array, map, chan, or a non-operator struct): the clone plan
//     copies the container value verbatim without recursing, so all clones
//     share the same child operator instances — per-run state by another
//     route. Child fields must be operator-typed (or interface-typed)
//     directly for CloneTree's dynamic dispatch to see them.
//
//  3. A method of an operator writing one of its exported fields, or into
//     one: exported fields are copied into every clone from the cached
//     original, so a run-time write is per-run state escaping into shared
//     configuration. A struct-typed configuration field may carry unexported
//     parts of its own — exec.Scalar's compiled program is built by its
//     constructor at plan time and copied with the struct — but an operator
//     method assigning one at run time is the same violation.
package clonesafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/opshape"
)

// Analyzer is the clonesafety check.
var Analyzer = &analysis.Analyzer{
	Name: "clonesafety",
	Doc: "operator structs must keep exported fields immutable config and unexported fields " +
		"per-run state, the convention exec.CloneTree's layout plans rely on",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok == token.TYPE {
					for _, spec := range d.Specs {
						checkTypeSpec(pass, spec.(*ast.TypeSpec))
					}
				}
			case *ast.FuncDecl:
				checkMethod(pass, d)
			}
		}
	}
	return nil, nil
}

// checkTypeSpec applies shapes 1 and 2 to one struct declaration.
func checkTypeSpec(pass *analysis.Pass, spec *ast.TypeSpec) {
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	obj := pass.TypesInfo.Defs[spec.Name]
	if obj == nil {
		return
	}
	named := obj.Type()
	if !opshape.IsOperator(named) {
		return
	}

	// Shape 1: a value-receiver operator with unexported state is returned
	// as-is by cloneAny — CloneTree has no layout plan covering it.
	if opshape.ValueReceiverOperator(named) && hasUnexportedField(st) {
		pass.Reportf(spec.Name.Pos(),
			"operator %s implements the iterator on value receivers but carries unexported state; "+
				"CloneTree cannot clone a non-pointer operator, so every execution would share it "+
				"(move the iterator methods to *%s)", spec.Name.Name, spec.Name.Name)
	}

	// Shape 2: exported fields hiding children inside containers.
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if !name.IsExported() {
				continue
			}
			fobj := pass.TypesInfo.Defs[name]
			if fobj == nil {
				continue
			}
			ft := fobj.Type()
			// Directly operator- or interface-typed fields are what the
			// clone plan's dynamic dispatch handles.
			if opshape.IsOperator(ft) || isInterface(ft) {
				continue
			}
			if buriesOperator(ft, 0, map[types.Type]bool{}) {
				pass.Reportf(name.Pos(),
					"exported field %s.%s holds operators inside %s; CloneTree copies the container "+
						"without recursing, so all clones share the child iterator state "+
						"(make the field operator-typed, or unexport it and rebuild it in Open)",
					spec.Name.Name, name.Name, types.TypeString(ft, types.RelativeTo(pass.Pkg)))
			}
		}
	}
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func hasUnexportedField(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if !n.IsExported() {
				return true
			}
		}
	}
	return false
}

// buriesOperator walks one type's structure looking for operator-shaped
// components below the level CloneTree's field dispatch can see.
func buriesOperator(t types.Type, depth int, seen map[types.Type]bool) bool {
	if depth > 6 || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return reaches(u.Elem(), depth+1, seen)
	case *types.Array:
		return reaches(u.Elem(), depth+1, seen)
	case *types.Map:
		return reaches(u.Key(), depth+1, seen) || reaches(u.Elem(), depth+1, seen)
	case *types.Chan:
		return reaches(u.Elem(), depth+1, seen)
	case *types.Pointer:
		// A pointer to a non-operator struct is shared config by convention;
		// operators hiding inside it are still shared children.
		return buriesOperator(u.Elem(), depth+1, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if reaches(u.Field(i).Type(), depth+1, seen) {
				return true
			}
		}
	}
	return false
}

// reaches reports whether t is itself operator-shaped or buries one.
func reaches(t types.Type, depth int, seen map[types.Type]bool) bool {
	return opshape.IsOperator(t) || buriesOperator(t, depth, seen)
}

// checkMethod applies shape 3: methods of an operator must not write its
// exported fields.
func checkMethod(pass *analysis.Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
		return
	}
	recvField := fd.Recv.List[0]
	if len(recvField.Names) != 1 {
		return // anonymous receiver cannot be written through
	}
	recvName := recvField.Names[0].Name
	if recvName == "_" {
		return
	}
	recvObj := pass.TypesInfo.Defs[recvField.Names[0]]
	if recvObj == nil || !opshape.IsOperator(recvObj.Type()) {
		return
	}
	typeName := operatorTypeName(recvObj.Type())

	report := func(sel *ast.SelectorExpr) {
		pass.Reportf(sel.Sel.Pos(),
			"method of operator %s writes exported field %s; exported fields are plan-time "+
				"configuration shared across CloneTree clones — keep per-run state in an "+
				"unexported field", typeName, sel.Sel.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if sel := receiverExportedTarget(pass, lhs, recvObj); sel != nil {
					report(sel)
				}
			}
		case *ast.IncDecStmt:
			if sel := receiverExportedTarget(pass, st.X, recvObj); sel != nil {
				report(sel)
			}
		}
		return true
	})
}

// operatorTypeName names the receiver's operator type for diagnostics.
func operatorTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// receiverExportedTarget matches lhs being recv.Field, or anything reached
// through it — recv.Field[i] at any index depth, recv.Field.sub of a struct
// such as a compiled Scalar — for an exported Field, returning recv.Field.
func receiverExportedTarget(pass *analysis.Pass, lhs ast.Expr, recv types.Object) *ast.SelectorExpr {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			lhs = x.X
			continue
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); !ok || pass.TypesInfo.Uses[id] != recv {
				lhs = x.X
				continue
			}
			// Only direct field writes count; method values cannot be assigned.
			if s, ok := pass.TypesInfo.Selections[x]; ok && s.Kind() == types.FieldVal && x.Sel.IsExported() {
				return x
			}
		}
		return nil
	}
}
