package p2b

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// godocLintDirs are the packages the documentation gate covers: the public
// SDK surface, the fleet-topology package operators script against, the
// metrics/persist packages whose exported types the telemetry and
// durability tooling (p2bwal, dashboards) build on, the analyzer server
// whose PersistedState is the checkpoint and peer-merge body, and the
// privacy package that states the mechanism every layer calls. CI runs this
// test as its godoc lint step; adding a package here makes its exported
// surface documentation-mandatory.
var godocLintDirs = []string{".", "agent", "internal/metrics", "internal/node", "internal/persist", "internal/privacy", "internal/server", "internal/topology"}

// TestExportedIdentifiersAreDocumented fails when any exported identifier
// in the covered packages lacks a doc comment. Undocumented exports are
// how an SDK rots: godoc renders a bare name, users guess, and the guess
// becomes load-bearing. A const/var inside a documented group ("//
// The three node roles." above a const block) is fine — the group doc is
// the documentation.
func TestExportedIdentifiersAreDocumented(t *testing.T) {
	var missing []string
	for _, dir := range godocLintDirs {
		fset := token.NewFileSet()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range entries {
			name := entry.Name()
			if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			missing = append(missing, undocumentedExports(fset, f)...)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("%d exported identifiers lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// undocumentedExports returns one "file:line: name" entry per exported
// top-level identifier in f that has no doc comment.
func undocumentedExports(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s %s", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				// Methods on unexported receivers are not public surface.
				if recv := receiverTypeName(d.Recv); recv != "" && !ast.IsExported(recv) {
					continue
				}
				report(d.Pos(), "method", receiverTypeName(d.Recv)+"."+d.Name.Name)
				continue
			}
			report(d.Pos(), "func", d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc comment on the spec or on the grouped decl
					// ("const ( ... )") satisfies the gate for every name in
					// the group.
					if s.Doc != nil || d.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), "const/var", n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverTypeName unwraps a method receiver to its base type name.
func receiverTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
