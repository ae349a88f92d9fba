package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestServingReadsThroughSnapshots checks that the serving layer never reads
// the store itself: the engine and its two commands pin a Snapshot and hand it
// to core, so every read of a request sees one version. A call of a read
// method in any of their non-test files — on the store or anything else —
// fails.
func TestServingReadsThroughSnapshots(t *testing.T) {
	reads := map[string]bool{"Table": true, "Lookup": true, "Deref": true, "OIDs": true,
		"Size": true, "IndexLookup": true, "IndexRange": true, "ColProj": true}
	for _, dir := range []string{".", "../../cmd/adlserve", "../../cmd/adlload"} {
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		if len(files) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && reads[sel.Sel.Name] {
						t.Errorf("%s: %s reads outside a pinned snapshot", fset.Position(call.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}
