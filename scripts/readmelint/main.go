// Command readmelint keeps README.md's reference tables honest: it
// extracts the exported fields of ftla.Config from the source (go/ast)
// and the registered ftserve flag names from cmd/ftserve/main.go, then
// fails when any of them is missing from the README, or when a row of the
// config table or of the flag table names something the source no longer
// defines — the generate-and-diff companion to scripts/doclint, wired
// into scripts/check.sh so the docs cannot drift from the config surface
// in either direction.
//
// Usage (from the repository root):
//
//	go run ./scripts/readmelint
//
// Exit status 1 lists each missing or stale entry. The tables themselves
// are regenerated with `go run ./cmd/ftserve -print-flags` /
// `-print-endpoints`; the Config table is maintained by hand against
// ftla.go's godoc.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
)

func main() {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		fmt.Fprintf(os.Stderr, "readmelint: %v (run from the repository root)\n", err)
		os.Exit(2)
	}
	doc := string(readme)
	fields := configFields("ftla.go")
	flags := flagNames("cmd/ftserve/main.go")

	bad := 0
	report := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "readmelint: "+format+"\n", args...)
		bad++
	}
	for _, field := range fields {
		if !strings.Contains(doc, "`"+field+"`") {
			report("ftla.Config.%s missing from README.md (config reference table)", field)
		}
	}
	for _, name := range flags {
		if !strings.Contains(doc, "`-"+name+"`") {
			report("ftserve flag -%s missing from README.md (regenerate with `go run ./cmd/ftserve -print-flags`)", name)
		}
	}
	rows := tableKeys(doc)
	for _, field := range rows["Field"] {
		if !slices.Contains(fields, field) {
			report("README.md config table lists `%s`, which is not an exported ftla.Config field", field)
		}
	}
	for _, name := range rows["Flag"] {
		if !slices.Contains(flags, strings.TrimPrefix(name, "-")) {
			report("README.md flag table lists `%s`, which cmd/ftserve does not register (regenerate with `go run ./cmd/ftserve -print-flags`)", name)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "readmelint: %d reference-table entries missing or stale\n", bad)
		os.Exit(1)
	}
}

// tableKeys returns, for each markdown table keyed by its first header
// cell ("Field", "Flag", ...), the backquoted first cell of every body row.
func tableKeys(doc string) map[string][]string {
	keys := map[string][]string{}
	header := ""
	for _, line := range strings.Split(doc, "\n") {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			header = ""
			continue
		}
		first := strings.TrimSpace(cells[1])
		switch {
		case header == "":
			header = first
		case len(first) > 2 && strings.HasPrefix(first, "`") && strings.HasSuffix(first, "`"):
			keys[header] = append(keys[header], strings.Trim(first, "`"))
		}
	}
	return keys
}

// configFields returns the exported field names of `type Config struct`
// in the given file.
func configFields(path string) []string {
	f := parse(path)
	var fields []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Config" {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fl := range st.Fields.List {
			for _, name := range fl.Names {
				if name.IsExported() {
					fields = append(fields, name.Name)
				}
			}
		}
		return false
	})
	if len(fields) == 0 {
		fmt.Fprintf(os.Stderr, "readmelint: no exported Config fields found in %s\n", path)
		os.Exit(2)
	}
	return fields
}

// flagNames returns the first-argument string literals of every
// flag.String/Int/Bool/... registration call in the given file.
func flagNames(path string) []string {
	f := parse(path)
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
			return true
		}
		switch sel.Sel.Name {
		case "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "String", "Duration":
		default:
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		names = append(names, strings.Trim(lit.Value, `"`))
		return true
	})
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "readmelint: no flag registrations found in %s\n", path)
		os.Exit(2)
	}
	return names
}

func parse(path string) *ast.File {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "readmelint: %v\n", err)
		os.Exit(2)
	}
	return f
}
