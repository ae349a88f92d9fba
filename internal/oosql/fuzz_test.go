package oosql

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/value"
)

// fuzzSeeds is the seed corpus: every query shape the parser tests exercise,
// plus the syntactic edge cases the lexer tests reject.
var fuzzSeeds = []string{
	`select s from s in SUPPLIER`,
	`select (sname = s.sname,
	         pnames = select p.pname from p in s.parts_supplied where p.color = "red")
	 from s in SUPPLIER`,
	`select d from d in (select e from e in DELIVERY where e.supplier.sname = "supplier-1")
	 where d.date = 940101`,
	`select s.eid from s in SUPPLIER
	 where exists z in s.parts_supplied : not exists p in PART : z = p`,
	`select s from s in SUPPLIER
	 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
	`select x from x in X where x.c subset Y' with Y' = select y from y in Y where y.a = x.a`,
	`select s.sname from s in SUPPLIER where count(Y') = 2
	 with Y' = select p from p in PART where p in s.parts_supplied`,
	`forall z in x.c : exists y in Y : y in z`,
	`(a = 1, b = 2)`,
	`((a) = 1)`,
	`{1, 2, 3}`,
	`{}`,
	`x or y and z`,
	`1 + 2 * 3`,
	`a union b subset c`,
	`x not in S`,
	`not x in S`,
	`940101`,
	`select s.sname from s in SUPPLIER where s.x <= 940101 -- comment
	 and t = "red\n"`,
	`"unterminated`,
	`a ? b`,
	`"bad \q escape"`,
	`select`,
	`exists x in`,
	`flatten(select t.parts_supplied from t in SUPPLIER where t.sname = "s")`,
	`select é from é in PART`,
	`select ª from ª in PART`,
}

// FuzzParse feeds arbitrary source through the lexer and parser: neither may
// panic, and whatever parses must print without panicking. Its seeds are the
// inputs of testdata/tokens.golden: the seeds here and every census, ruler
// and paper text. Run the fuzzer with
//
//	go test ./internal/oosql -run '^$' -fuzz FuzzParse -fuzztime 30s
//
// (CI runs a short smoke; see make fuzz-smoke.)
func FuzzParse(f *testing.F) {
	for _, s := range goldenInputs(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		e, err := Parse(src)
		if err != nil {
			// Errors must be diagnostics, not crashes, and must be non-empty.
			if strings.TrimSpace(err.Error()) == "" {
				t.Fatalf("empty parse error for %q", src)
			}
			return
		}
		if e == nil {
			t.Fatalf("nil AST without error for %q", src)
		}
		_ = e.String()
	})
}

// fingerprintSeeds add to fuzzSeeds the literals the two lexer passes must
// agree on: escaped strings, a string whose escape comes after plain text,
// non-ASCII identifiers and strings, unterminated strings and escapes, equal
// literals of one kind and of two, and an integer out of range; and the
// positions after CR/LF, tabs, a comment at the end of the input and a string
// that spans lines, keywords' prefixes and extensions, floats, symbols of two
// bytes, a non-ASCII digit inside and at the start of an identifier, a
// non-ASCII character that is no letter, and a byte that starts no character.
var fingerprintSeeds = []string{
	`select p from p in PART where p.color = "r\"e\\d" and p.pname = "a\tb\n"`,
	`select p from p in PART where p.pname = "plain then \"quoted\""`,
	`select ü from ü in PART where ü.pname = "grün" and ü.price = 3`,
	`p.color = "red`,
	`p.color = "red\`,
	`p.price = 1001 and p.price < 1001 and p.weight = 1001.0 and p.pname = "1001"`,
	`p.price = 99999999999999999999 and p.price = 3`,
	"select p from p in PART\r\n\twhere p.price < 2.5 -- trailing comment",
	"a\r\nb\n\n  c -- no newline",
	`selected Select in_ in ins fromage x' x'' _ _1`,
	"p.w = 1.25 and p.w < 1. and p.w >= 10.0e3 or a <> b or a <= -1 or a > 2",
	"\"spans\nlines\" x\n\t\"esc\\n\" y",
	"a\n \"bad \\\n escape\"",
	`x٣ = 1`,
	`٣x = 1`,
	"select\n  p €",
	"a = \xff",
	"a -",
	"--",
}

// FuzzFingerprint holds oosql.Fingerprint, the pass a prepare runs before it
// knows whether it needs tokens, to LexText on every input: the same
// fingerprint, literal classes, counts and error, and no tokens. Its seeds
// are FuzzParse's. Run the fuzzer with
//
//	go test ./internal/oosql -run '^$' -fuzz FuzzFingerprint -fuzztime 30s
//
// (CI runs a short smoke; see make fuzz-smoke.)
func FuzzFingerprint(f *testing.F) {
	for _, s := range goldenInputs(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		want, werr := LexText(src, []byte{'F'})
		got, gerr := Fingerprint(src, []byte{'F'})
		if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
			t.Fatalf("%q: Fingerprint error %v, LexText error %v", src, gerr, werr)
		}
		if got.Tokens != nil {
			t.Fatalf("%q: Fingerprint built %d tokens", src, len(got.Tokens))
		}
		if !bytes.Equal(got.Fingerprint, want.Fingerprint) || (got.Fingerprint == nil) != (want.Fingerprint == nil) {
			t.Fatalf("%q: fingerprint %q, LexText's %q", src, got.Fingerprint, want.Fingerprint)
		}
		if !slices.Equal(got.Counts, want.Counts) || len(got.Classes) != len(want.Classes) {
			t.Fatalf("%q: classes %v counts %v, LexText's %v %v", src, got.Classes, got.Counts, want.Classes, want.Counts)
		}
		for i, c := range want.Classes {
			if got.Classes[i].Kind() != c.Kind() || !value.Equal(got.Classes[i], c) {
				t.Fatalf("%q: class %d is %v, LexText's %v", src, i, got.Classes[i], c)
			}
		}
	})
}
