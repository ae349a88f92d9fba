package adllint_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/lint/adllint"
)

// TestExitCodes drives the multichecker over the synthetic module in
// testdata/mod and checks the exit-code contract: clean code exits 0,
// seeded violations exit 1, documented suppressions bring it back to 0,
// and unloadable patterns exit 2.
func TestExitCodes(t *testing.T) {
	const mod = "testdata/mod"

	t.Run("clean", func(t *testing.T) {
		var buf bytes.Buffer
		if code := adllint.Run(&buf, mod, adllint.Suite(), "./clean"); code != adllint.ExitClean {
			t.Fatalf("exit = %d, want %d; output:\n%s", code, adllint.ExitClean, buf.String())
		}
		if buf.Len() != 0 {
			t.Errorf("clean run produced output:\n%s", buf.String())
		}
	})

	t.Run("violating", func(t *testing.T) {
		var buf bytes.Buffer
		if code := adllint.Run(&buf, mod, adllint.Suite(), "./violating"); code != adllint.ExitFindings {
			t.Fatalf("exit = %d, want %d; output:\n%s", code, adllint.ExitFindings, buf.String())
		}
		out := buf.String()
		for _, want := range []string{"(closepropagate)", "violating.go"} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("suppressed", func(t *testing.T) {
		var buf bytes.Buffer
		if code := adllint.Run(&buf, mod, adllint.Suite(), "./suppressed"); code != adllint.ExitClean {
			t.Fatalf("exit = %d, want %d; output:\n%s", code, adllint.ExitClean, buf.String())
		}
	})

	t.Run("load-error", func(t *testing.T) {
		var buf bytes.Buffer
		if code := adllint.Run(&buf, mod, adllint.Suite(), "./no-such-package"); code != adllint.ExitError {
			t.Fatalf("exit = %d, want %d; output:\n%s", code, adllint.ExitError, buf.String())
		}
	})

	t.Run("all-packages", func(t *testing.T) {
		var buf bytes.Buffer
		if code := adllint.Run(&buf, mod, adllint.Suite(), "./..."); code != adllint.ExitFindings {
			t.Fatalf("exit = %d, want %d; output:\n%s", code, adllint.ExitFindings, buf.String())
		}
		out := buf.String()
		if strings.Contains(out, "suppressed.go") || strings.Contains(out, "clean.go") {
			t.Errorf("findings leaked from clean/suppressed packages:\n%s", out)
		}
	})
}

// TestSuiteSize pins the suite `adllint -list` prints: the four analyzers of
// the serving-layer invariants (the clone convention's went with the
// convention).
func TestSuiteSize(t *testing.T) {
	if n := len(adllint.Suite()); n != 4 {
		t.Fatalf("Suite() has %d analyzers, want 4", n)
	}
	seen := map[string]bool{}
	for _, az := range adllint.Suite() {
		if az.Name == "" || az.Doc == "" || az.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", az)
		}
		if seen[az.Name] {
			t.Errorf("duplicate analyzer name %q", az.Name)
		}
		seen[az.Name] = true
	}
}
