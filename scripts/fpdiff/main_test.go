package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with FPDIFF_OLD and FPDIFF_NEW set, so the tests see main's exit status
// and output.
func TestMain(m *testing.M) {
	if old, ok := os.LookupEnv("FPDIFF_OLD"); ok {
		os.Args = []string{"fpdiff", old, os.Getenv("FPDIFF_NEW")}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFpdiffExit pins the label pairing: rows pair by the text before
// " | " whatever their order, a row found in one file only still fails
// the gate, and a label repeated within a file is a usage error.
func TestFpdiffExit(t *testing.T) {
	const (
		a     = "a | x=1 sim=3ff0000000000000"
		b     = "b | x=2 sim=3ff0000000000000"
		c     = "c | x=3 sim=3ff0000000000000"
		bSlow = "b | x=2 sim=4000000000000000"
		bFast = "b | x=2 sim=3fe0000000000000"
		bBits = "b | x=9 sim=3ff0000000000000"
	)
	cases := []struct {
		name     string
		old, new []string
		code     int
		out      string // a line the output must hold
	}{
		{"reordered rows pair", []string{a, b, c}, []string{c, a, b}, 0, "3 rows paired, 0 with sim= changed, 0 offending, 0 one-sided"},
		{"faster row passes", []string{a, b}, []string{a, bFast}, 0, "2 rows paired, 1 with sim= changed"},
		{"slower row offends", []string{a, b}, []string{a, bSlow}, 1, "b: sim= grew"},
		{"changed field offends", []string{a, b}, []string{a, bBits}, 1, "b: fields other than sim= differ"},
		{"replaced row is one-sided", []string{a, b}, []string{a, c}, 1, "1 rows paired, 0 with sim= changed, 0 offending, 2 one-sided"},
		{"repeated label", []string{a, b}, []string{a, b, bFast}, 2, ""},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldPath := filepath.Join(dir, strings.Repeat("o", i+1))
			newPath := filepath.Join(dir, strings.Repeat("n", i+1))
			for path, rows := range map[string][]string{oldPath: tc.old, newPath: tc.new} {
				if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "FPDIFF_OLD="+oldPath, "FPDIFF_NEW="+newPath)
			out, err := cmd.Output()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Fatalf("exit %d, want %d; output:\n%s", code, tc.code, out)
			}
			if !strings.Contains(string(out), tc.out) {
				t.Fatalf("output lacks %q:\n%s", tc.out, out)
			}
		})
	}
}
