package repro_test

import (
	"bytes"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestPublicSurfaceGolden pins package repro's exported identifiers —
// every const, var, func, type, method and struct field with its
// declaration — against testdata/api.golden, so a change that grows or
// reshapes the public surface shows up in its diff. UPDATE_GOLDEN=1
// regenerates the golden; inspect the diff and commit it deliberately.
func TestPublicSurfaceGolden(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro")
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	src := func(n ast.Node) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	fn := func(f *doc.Func) {
		decl := *f.Decl
		decl.Doc, decl.Body = nil, nil
		lines = append(lines, src(&decl))
	}
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.IsExported() {
						lines = append(lines, v.Decl.Tok.String()+" "+name.Name)
					}
				}
			}
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	for _, f := range pkg.Funcs {
		fn(f)
	}
	for _, typ := range pkg.Types {
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		head := *spec
		head.Doc, head.Comment = nil, nil
		switch st := spec.Type.(type) {
		case *ast.StructType:
			head.Type = &ast.StructType{Fields: &ast.FieldList{}}
			lines = append(lines, "type "+src(&head))
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() {
						lines = append(lines, typ.Name+"."+name.Name+" "+src(field.Type))
					}
				}
			}
		default:
			lines = append(lines, "type "+src(&head))
		}
		values(typ.Consts)
		values(typ.Vars)
		for _, f := range typ.Funcs {
			fn(f)
		}
		for _, m := range typ.Methods {
			fn(m)
		}
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")

	const golden = "testdata/api.golden"
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("public surface changed (UPDATE_GOLDEN=1 regenerates; commit the diff deliberately)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
