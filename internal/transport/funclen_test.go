package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// The server's round is a list of phase methods, not one long body: no
// function in server.go may run past 80 lines.
func TestServerFunctionsAreShort(t *testing.T) {
	const maxLines = 80
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if n := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1; n > maxLines {
			t.Errorf("%s is %d lines, want at most %d", fn.Name.Name, n, maxLines)
		}
	}
}
