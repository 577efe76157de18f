package main

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func write(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func collect(failures *[]string) func(token.Position, string, ...any) {
	return func(pos token.Position, format string, args ...any) {
		*failures = append(*failures, format)
	}
}

func TestCheckPackageDoc(t *testing.T) {
	root := t.TempDir()
	write(t, filepath.Join(root, "good"), "good.go", "// Package good is documented.\npackage good\n")
	write(t, filepath.Join(root, "bad"), "bad.go", "package bad\n")
	write(t, filepath.Join(root, "bad"), "bad_test.go", "// Package bad test file docs do not count.\npackage bad\n")
	write(t, filepath.Join(root, "testdata"), "skipped.go", "package skipped\n")

	var failures []string
	err := walkPackages(root, func(dir string) error {
		return checkPackageDoc(dir, collect(&failures))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 {
		t.Fatalf("got %d failures (%v), want exactly the undocumented package", len(failures), failures)
	}
}

func TestCheckExportedDocs(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "api.go", `// Package api is documented.
package api

// Documented is fine.
func Documented() {}

func Undocumented() {}

// T is fine.
type T struct{}

// Method is fine.
func (T) Method() {}

func (T) Naked() {}

type U struct{}

type hidden struct{}

func (hidden) NotAPI() {}

// Group doc satisfies the whole block.
const (
	A = 1
	B = 2
)

var Loose = 3
`)
	var failures []string
	if err := checkExportedDocs(dir, collect(&failures)); err != nil {
		t.Fatal(err)
	}
	// Undocumented func, T.Naked method, type U, var Loose.
	if len(failures) != 4 {
		t.Fatalf("got %d failures (%v), want 4", len(failures), failures)
	}
}

func TestCheckPositionalParams(t *testing.T) {
	for _, tc := range []struct {
		name, decl string
		fail       bool
	}{
		{"four parameters", "// F is wide.\nfunc F(a, b int, c string, d bool) {}", true},
		{"three parameters", "// F fits.\nfunc F(a, b int, c string) {}", false},
		{"leading context is free", "// F fits.\nfunc F(ctx context.Context, a, b int, c string) {}", false},
		{"context elsewhere counts", "// F is wide.\nfunc F(a, b int, c string, ctx context.Context) {}", true},
		{"waiver", "// F is waived.\n//\n//doccheck:allow-positional\nfunc F(a, b int, c string, d bool) {}", false},
		{"unexported", "func f(a, b int, c string, d bool) {}", false},
		{"method", "// T is a type.\ntype T struct{}\n\n// M is a method.\nfunc (T) M(a, b int, c string, d bool) {}", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write(t, dir, "api.go", "// Package api is documented.\npackage api\n\nimport \"context\"\n\nvar _ context.Context\n\n"+tc.decl+"\n")
			var failures []string
			if err := checkPositionalParams(dir, collect(&failures)); err != nil {
				t.Fatal(err)
			}
			if got := len(failures) > 0; got != tc.fail {
				t.Fatalf("failures %v, want failure %v", failures, tc.fail)
			}
		})
	}
}

func TestRepositoryPassesItsOwnFloor(t *testing.T) {
	// The repo root is three levels up; the floor this tool enforces in CI
	// must hold for the tree the test runs in.
	root := filepath.Join("..", "..", "..")
	var failures []string
	err := walkPackages(root, func(dir string) error {
		return checkPackageDoc(dir, collect(&failures))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkExportedDocs(root, collect(&failures)); err != nil {
		t.Fatal(err)
	}
	if err := checkPositionalParams(root, collect(&failures)); err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("documentation floor violated: %v", failures)
	}
}
