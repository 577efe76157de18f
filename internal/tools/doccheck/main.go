// Command doccheck enforces the repository's documentation floor. It has
// three checks, all pure go/ast analysis with no dependencies:
//
//   - every package reachable under the roots passed via -pkgdoc must carry
//     a package doc comment (the ARCHITECTURE.md acceptance bar: all of
//     internal/ plus the root package);
//   - every exported top-level identifier in the directories passed as
//     positional arguments (the public API) must carry a doc comment;
//   - every exported top-level function in the directories passed via
//     -apicheck must take at most three positional parameters (a leading
//     context.Context is free), so new root entry points grow spec/options
//     structs instead of positional tails. A //doccheck:allow-positional
//     directive in the doc comment grants an explicit waiver.
//
// Usage:
//
//	go run ./internal/tools/doccheck [-pkgdoc root]... [-apicheck dir]... [dir]...
//
// Exit status is non-zero if any check fails; each failure is reported as
// file:line so editors can jump to it. The make docs-check target wires
// this into CI.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var pkgdocRoots, apiRoots multiFlag
	flag.Var(&pkgdocRoots, "pkgdoc", "root directory whose packages must all have package doc comments (repeatable)")
	flag.Var(&apiRoots, "apicheck", "directory whose exported functions must take ≤ 3 positional parameters (repeatable)")
	flag.Parse()

	failures := 0
	report := func(pos token.Position, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "%s: %s\n", pos, fmt.Sprintf(format, args...))
		failures++
	}

	for _, root := range pkgdocRoots {
		if err := walkPackages(root, func(dir string) error {
			return checkPackageDoc(dir, report)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
	}
	for _, dir := range flag.Args() {
		if err := checkExportedDocs(dir, report); err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
	}
	for _, dir := range apiRoots {
		if err := checkPositionalParams(dir, report); err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d violation(s)\n", failures)
		os.Exit(1)
	}
}

type multiFlag []string

// String implements flag.Value.
func (m *multiFlag) String() string { return strings.Join(*m, ",") }

// Set implements flag.Value.
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// walkPackages calls fn for every directory under root that contains at
// least one non-test Go file, skipping testdata and hidden directories.
func walkPackages(root string, fn func(dir string) error) error {
	seen := map[string]bool{}
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (len(name) > 1 && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if seen[dir] {
			return nil
		}
		seen[dir] = true
		return fn(dir)
	})
}

// parseDir parses the non-test Go files of one directory with comments.
func parseDir(dir string) (*token.FileSet, []*ast.File, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	return fset, files, nil
}

// checkPackageDoc reports a failure if no file of the package carries a
// package doc comment.
func checkPackageDoc(dir string, report func(token.Position, string, ...any)) error {
	fset, files, err := parseDir(dir)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return nil
	}
	for _, f := range files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return nil
		}
	}
	report(fset.Position(files[0].Package), "package %s has no package doc comment", files[0].Name.Name)
	return nil
}

// checkExportedDocs reports every exported top-level identifier (type, func,
// method on an exported type, const, var) without a doc comment. Grouped
// const/var declarations are satisfied by a doc comment on the group.
func checkExportedDocs(dir string, report func(token.Position, string, ...any)) error {
	fset, files, err := parseDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil {
					report(fset.Position(d.Pos()), "exported %s %s has no doc comment", declKind(d), d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(fset, d, report)
			}
		}
	}
	return nil
}

// exportedReceiver reports whether a function is free-standing or a method
// on an exported named type (methods on unexported types are not API).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic receiver instantiations like T[S].
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if idx, ok := t.(*ast.IndexListExpr); ok {
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// maxPositional is the parameter budget for exported functions under
// -apicheck; anything wider must take a spec or options struct.
const maxPositional = 3

// checkPositionalParams reports every exported free-standing function with
// more than maxPositional parameters, not counting a leading
// context.Context. //doccheck:allow-positional in the doc comment is an
// explicit reviewed waiver.
func checkPositionalParams(dir string, report func(token.Position, string, ...any)) error {
	fset, files, err := parseDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Recv != nil || !d.Name.IsExported() {
				continue
			}
			if hasDirective(d.Doc, "doccheck:allow-positional") {
				continue
			}
			if n := positionalParams(d.Type); n > maxPositional {
				report(fset.Position(d.Pos()),
					"exported function %s takes %d positional parameters (max %d): use a spec/options struct, or add //doccheck:allow-positional",
					d.Name.Name, n, maxPositional)
			}
		}
	}
	return nil
}

// positionalParams counts a signature's parameters, with a leading
// context.Context free of charge.
func positionalParams(ft *ast.FuncType) int {
	if ft.Params == nil {
		return 0
	}
	n := 0
	for _, field := range ft.Params.List {
		if len(field.Names) == 0 {
			n++
			continue
		}
		n += len(field.Names)
	}
	if len(ft.Params.List) > 0 && isContextContext(ft.Params.List[0].Type) &&
		len(ft.Params.List[0].Names) <= 1 {
		n--
	}
	return n
}

// isContextContext reports whether an expression is the type context.Context.
func isContextContext(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context"
}

// hasDirective reports whether a doc comment contains the given //-directive
// line. Directives are stripped from CommentGroup.Text, so scan the raw
// comment list.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == directive {
			return true
		}
	}
	return false
}

// checkGenDecl enforces doc comments on exported types, consts and vars.
func checkGenDecl(fset *token.FileSet, d *ast.GenDecl, report func(token.Position, string, ...any)) {
	groupDocumented := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(fset.Position(s.Pos()), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			if groupDocumented || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(fset.Position(s.Pos()), "exported %s %s has no doc comment", d.Tok, name.Name)
					break
				}
			}
		}
	}
}
