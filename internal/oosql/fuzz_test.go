package oosql

import (
	"strings"
	"testing"
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
// panic, and whatever parses must print without panicking. Run the fuzzer
// with
//
//	go test ./internal/oosql -run '^$' -fuzz FuzzParse -fuzztime 30s
//
// (CI runs a short smoke; see make fuzz-smoke.)
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
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
