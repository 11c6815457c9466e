package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes the CLI entry point and captures its streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCLICleanTree is the acceptance smoke test: `icrvet ./...` over the
// live repository exits 0 with no output.
func TestCLICleanTree(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-C", filepath.Join("..", ".."), "./...")
	if code != 0 {
		t.Fatalf("exit %d on live tree\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("unexpected findings:\n%s", stdout)
	}
}

// TestCLIFixturesFail pins that each pass's fixture makes the CLI exit
// nonzero and name the right pass.
func TestCLIFixturesFail(t *testing.T) {
	cases := []struct {
		fixture string
		pass    string
	}{
		{"determinism", "[determinism]"},
		{"syncmisuse", "[syncmisuse]"},
		{"floatorder", "[floatorder]"},
		{"droppederr", "[droppederr]"},
		{"suppress", "[directive]"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join("..", "..", "internal", "lint", "testdata", tc.fixture)
			code, stdout, _ := runCLI(t, "-C", dir, "./...")
			if code != 1 {
				t.Fatalf("exit %d, want 1\nstdout:\n%s", code, stdout)
			}
			if !strings.Contains(stdout, tc.pass) {
				t.Errorf("output does not mention %s:\n%s", tc.pass, stdout)
			}
		})
	}
}

// TestCLIPatternFilter pins that a directory pattern narrows the report:
// the droppederr fixture has findings in both cmd/ and internal/runner,
// and asking for cmd/... must only show the former.
func TestCLIPatternFilter(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "droppederr")
	code, stdout, _ := runCLI(t, "-C", dir, "cmd/...")
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s", code, stdout)
	}
	if strings.Contains(stdout, "internal/runner") {
		t.Errorf("pattern cmd/... leaked internal/runner findings:\n%s", stdout)
	}
	if !strings.Contains(stdout, "cmd/app/main.go") {
		t.Errorf("pattern cmd/... lost the cmd findings:\n%s", stdout)
	}
}

// TestCLIPassSubset pins -passes narrowing and unknown-pass rejection.
func TestCLIPassSubset(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "lint", "testdata", "determinism")
	code, stdout, _ := runCLI(t, "-C", dir, "-passes", "droppederr", "./...")
	if code != 0 || stdout != "" {
		t.Errorf("droppederr-only over determinism fixture: exit %d, out %q", code, stdout)
	}
	code, _, stderr := runCLI(t, "-C", dir, "-passes", "bogus", "./...")
	if code != 2 || !strings.Contains(stderr, "unknown pass") {
		t.Errorf("bogus pass: exit %d, stderr %q; want exit 2 naming the pass", code, stderr)
	}
}

// TestCLIList covers -list.
func TestCLIList(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, pass := range []string{"determinism", "syncmisuse", "floatorder", "droppederr", "wirecoverage"} {
		if !strings.Contains(stdout, pass) {
			t.Errorf("-list output missing %s:\n%s", pass, stdout)
		}
	}
}
