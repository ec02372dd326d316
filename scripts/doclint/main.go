// Command doclint fails when a Go package exports an undocumented
// identifier. It is the documentation gate wired into scripts/check.sh:
// the public ftla package and every internal package must keep every
// exported type, function, method, constant, and variable documented.
//
// Usage:
//
//	go run ./scripts/doclint <pkg-dir> [pkg-dir...]
//
// A const/var/type group's doc comment covers every spec in the group, as
// in standard godoc; a spec's own doc comment or trailing line comment
// also counts. Test files are ignored. Exit status 1 lists each offender
// as path:line: name.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint <pkg-dir> [pkg-dir...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		bad += lintDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d undocumented exported identifier(s)\n", bad)
		os.Exit(1)
	}
}

func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	bad := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				bad += lintDecl(fset, decl)
			}
		}
	}
	return bad
}

func lintDecl(fset *token.FileSet, decl ast.Decl) int {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
			report(fset, d.Pos(), d.Name.Name)
			return 1
		}
	case *ast.GenDecl:
		bad := 0
		for _, spec := range d.Specs {
			// The group comment documents the whole block (const/var
			// groups); a spec-level doc or trailing comment documents one
			// spec.
			documented := d.Doc != nil
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				if !documented && s.Doc == nil && s.Comment == nil {
					report(fset, s.Pos(), s.Name.Name)
					bad++
				}
			case *ast.ValueSpec:
				if documented || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, name := range s.Names {
					if name.IsExported() {
						report(fset, name.Pos(), name.Name)
						bad++
					}
				}
			}
		}
		return bad
	}
	return 0
}

// exportedRecv reports whether a method's receiver type is exported (or
// the decl is a plain function); methods on unexported types are internal
// even when their own name is capitalized.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

func report(fset *token.FileSet, pos token.Pos, name string) {
	p := fset.Position(pos)
	fmt.Printf("%s:%d: exported %s is undocumented\n", p.Filename, p.Line, name)
}
