package oosql

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// -update rewrites testdata/tokens.golden for the inputs it lists and the
// fuzz seeds it does not list yet:
//
//	go test ./internal/oosql -run TestTokensGolden -update
var update = flag.Bool("update", false, "rewrite testdata/tokens.golden")

const tokensGolden = "testdata/tokens.golden"

// goldenInputs are the texts testdata/tokens.golden lists, one line
// `input <Go-quoted text>` each: the fuzz seeds and every census, ruler and
// paper text (internal/plan's TestTokensGoldenListsEveryText holds it to
// those).
func goldenInputs(tb testing.TB) []string {
	tb.Helper()
	data, err := os.ReadFile(tokensGolden)
	if err != nil {
		tb.Fatalf("missing golden file (run with -update): %v", err)
	}
	var inputs []string
	for _, line := range strings.Split(string(data), "\n") {
		if q, ok := strings.CutPrefix(line, "input "); ok {
			src, err := strconv.Unquote(q)
			if err != nil {
				tb.Fatalf("%s: %s: %v", tokensGolden, line, err)
			}
			inputs = append(inputs, src)
		}
	}
	return inputs
}

var kindNames = [...]string{TokEOF: "eof", TokIdent: "ident", TokKeyword: "keyword",
	TokInt: "int", TokFloat: "float", TokString: "string", TokSym: "sym"}

// describe writes what the lexer makes of src: every token's position, kind,
// text and value, then the fingerprint, its classes and their counts — or
// the error. Fingerprint must agree with LexText on all but the tokens.
func describe(tb testing.TB, b *strings.Builder, src string) {
	fmt.Fprintf(b, "input %q\n", src)
	text, err := LexText(src, []byte{})
	fp, ferr := Fingerprint(src, []byte{})
	if fmt.Sprint(err) != fmt.Sprint(ferr) || !bytes.Equal(fp.Fingerprint, text.Fingerprint) ||
		!slices.Equal(fp.Counts, text.Counts) || fmt.Sprint(fp.Classes) != fmt.Sprint(text.Classes) {
		tb.Errorf("%q: Fingerprint %q %v %v (%v), LexText %q %v %v (%v)", src, fp.Fingerprint, fp.Classes,
			fp.Counts, ferr, text.Fingerprint, text.Classes, text.Counts, err)
	}
	if err != nil {
		fmt.Fprintf(b, "  error %q\n\n", err)
		return
	}
	for _, tok := range text.Tokens {
		fmt.Fprintf(b, "  %s %s %q", tok.Pos, kindNames[tok.Kind], tok.Text)
		switch {
		case tok.Val != nil:
			fmt.Fprintf(b, " %s %v", tok.Val.Kind(), tok.Val)
		case tok.Kind >= TokInt && tok.Kind <= TokString:
			b.WriteString(" no value")
		}
		b.WriteByte('\n')
	}
	if text.Fingerprint == nil {
		b.WriteString("  no fingerprint\n\n")
		return
	}
	fmt.Fprintf(b, "  fingerprint %q\n", text.Fingerprint)
	for i, c := range text.Classes {
		fmt.Fprintf(b, "  class %d %s %v ×%d\n", i, c.Kind(), c, text.Counts[i])
	}
	b.WriteByte('\n')
}

// TestTokensGolden holds both lexer passes to testdata/tokens.golden, byte
// for byte, on every input it lists; every fuzz seed must be one of them.
func TestTokensGolden(t *testing.T) {
	inputs := goldenInputs(t)
	for _, s := range append(fuzzSeeds, fingerprintSeeds...) {
		if !slices.Contains(inputs, s) {
			if !*update {
				t.Fatalf("fuzz seed %q is not in %s: run with -update", s, tokensGolden)
			}
			inputs = append(inputs, s)
		}
	}
	var b strings.Builder
	for _, src := range inputs {
		describe(t, &b, src)
	}
	if *update {
		if err := os.WriteFile(tokensGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tokensGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got  %s\n want %s", tokensGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: %d lines, want %d", tokensGolden, len(gl), len(wl))
	}
}
