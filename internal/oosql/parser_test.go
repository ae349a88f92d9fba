package oosql

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/value"
)

func parse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e
}

func parseErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("Parse(%q): expected error", src)
	}
	return err
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`select s.sname from s in SUPPLIER where s.x <= 940101 -- comment
		and t = "red\n"`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Fatalf("missing EOF: %v", kinds)
	}
	// Spot checks: keyword, ident, symbol, int, string.
	if toks[0].Kind != TokKeyword || toks[0].Text != "select" {
		t.Errorf("tok0 = %v", toks[0])
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == TokString && tok.Text == "red\n" {
			found = true
		}
	}
	if !found {
		t.Errorf("string literal with escape not lexed")
	}
}

func TestLexPrimedIdent(t *testing.T) {
	toks, err := Lex("Y' = 1")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "Y'" {
		t.Fatalf("primed identifier: %v", toks[0])
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex(`"unterminated`); err == nil {
		t.Errorf("unterminated string must fail")
	}
	if _, err := Lex(`a ? b`); err == nil {
		t.Errorf("unknown character must fail")
	}
	if _, err := Lex(`"bad \q escape"`); err == nil {
		t.Errorf("unknown escape must fail")
	}
}

// TestLexUnicode: identifier letters are classified by character, not by
// byte, and an error names the character it stopped at.
func TestLexUnicode(t *testing.T) {
	for _, name := range []string{"é", "ª", "Straße", "x٣", "π2", "日付"} {
		e, err := Parse("select " + name + " from " + name + " in PART")
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if sfw := e.(*SFW); sfw.Var != name {
			t.Errorf("%s lexed as %q", name, sfw.Var)
		}
	}
	for src, want := range map[string]string{
		"select € from x in PART":  `1:8: unexpected character "€"`,
		"select a\xff from x in X": `1:9: unexpected character "\xff"`,
	} {
		if _, err := Lex(src); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%q: %v, want %s", src, err, want)
		}
	}
}

// TestLexFingerprint: the fingerprint is the token stream without whitespace
// and comments, each literal its kind and its class: literals of one kind
// and value are one class, whatever their spelling.
func TestLexFingerprint(t *testing.T) {
	fp := func(src string) Text {
		t.Helper()
		text, err := LexText(src, []byte{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return text
	}
	a := fp(`select p from p in PART where p.price < 5 and p.w = 5 and p.c = "5" and p.f = 5.0 or p.g = 05 -- five`)
	if len(a.Classes) != 3 || fmt.Sprint(a.Counts) != "[3 1 1]" {
		t.Errorf("classes %v counted %v, want 5, \"5\", 5.0 counted [3 1 1]", a.Classes, a.Counts)
	}
	same := []string{
		"select p from p in PART where p.price<7 and p.w=7 and p.c=\"x\" and p.f=1.5 or p.g=7",
		"select p\n\tfrom p in PART -- comment\n where p.price < 9 and p.w = 9 and p.c = \"\\n\" and p.f = 0.0 or p.g = 9",
	}
	other := []string{
		`select p from p in PART where p.price < 7 and p.w = 8 and p.c = "x" and p.f = 1.5 or p.g = 7`,
		`select p from p in PART where p.price < 7 and p.w = 7 and p.c = "x" and p.f = 1.5 or p.g = 7.0`,
		`select p from p in PART where p.price < 7 and p.w = 7 and p.c = "x" and p.f = 1.5 or p.h = 7`,
		`select p from p in PART where p.price <= 7 and p.w = 7 and p.c = "x" and p.f = 1.5 or p.g = 7`,
	}
	for _, src := range same {
		if !bytes.Equal(fp(src).Fingerprint, a.Fingerprint) {
			t.Errorf("%s: another fingerprint", src)
		}
	}
	for _, src := range other {
		if bytes.Equal(fp(src).Fingerprint, a.Fingerprint) {
			t.Errorf("%s: the same fingerprint", src)
		}
	}
	if text := fp(`p.price < 99999999999999999999`); text.Fingerprint != nil {
		t.Errorf("a literal out of range has a fingerprint")
	}
	if text, _ := LexText(`p.price < 5`, nil); text.Fingerprint != nil || text.Classes != nil {
		t.Errorf("no buffer, but a fingerprint")
	}
}

// TestParsePaperQueries parses the paper's §2 example queries verbatim
// (modulo ASCII operator spellings).
func TestParsePaperQueries(t *testing.T) {
	queries := map[string]string{
		"EQ1": `select (sname = s.sname,
		                pnames = select p.pname
		                         from p in s.parts_supplied
		                         where p.color = "red")
		        from s in SUPPLIER`,
		"EQ2": `select d
		        from d in (select e
		                   from e in DELIVERY
		                   where e.supplier.sname = "s1")
		        where d.date = 940101`,
		"EQ3a": `select s.sname
		         from s in SUPPLIER
		         where s.parts_supplied superset
		               flatten(select t.parts_supplied
		                       from t in SUPPLIER
		                       where t.sname = "s1")`,
		"EQ3b": `select d
		         from d in DELIVERY
		         where exists x in (select s
		                            from s in d.supply
		                            where s.part.color = "red")`,
		"EQ4": `select s.eid
		        from s in SUPPLIER
		        where exists z in s.parts_supplied :
		              not exists p in PART : z = p`,
		"EQ5": `select s
		        from s in SUPPLIER
		        where exists x in s.parts_supplied :
		              exists p in PART : x = p and p.color = "red"`,
		"EQ6": `select (sname = s.sname,
		                parts_suppl = select p from p in PART
		                              where p in s.parts_supplied)
		        from s in SUPPLIER`,
		"GeneralFormat": `select x
		        from x in X
		        where x.c subset Y'
		        with Y' = select y from y in Y where y.a = x.a`,
	}
	for name, src := range queries {
		e := parse(t, src)
		if _, ok := e.(*SFW); !ok {
			t.Errorf("%s: top level is %T, want *SFW", name, e)
		}
	}
}

func TestParseSFWStructure(t *testing.T) {
	e := parse(t, `select s.sname from s in SUPPLIER where s.sname = "s1"`).(*SFW)
	if e.Var != "s" {
		t.Errorf("Var = %q", e.Var)
	}
	if _, ok := e.Sel.(*FieldAcc); !ok {
		t.Errorf("Sel = %T", e.Sel)
	}
	if id, ok := e.From.(*Ident); !ok || id.Name != "SUPPLIER" {
		t.Errorf("From = %v", e.From)
	}
	if b, ok := e.Where.(*Binary); !ok || b.Op != OpEq {
		t.Errorf("Where = %v", e.Where)
	}
}

func TestParseWithBindings(t *testing.T) {
	e := parse(t, `select x from x in X where x.c subset Y' with Y' = select y from y in Y where y.a = x.a`).(*SFW)
	if len(e.Withs) != 1 || e.Withs[0].Name != "Y'" {
		t.Fatalf("Withs = %v", e.Withs)
	}
	if _, ok := e.Withs[0].Val.(*SFW); !ok {
		t.Errorf("with value = %T", e.Withs[0].Val)
	}
	if !strings.Contains(e.String(), "with Y' =") {
		t.Errorf("String = %q", e.String())
	}
}

func TestParseQuantifiers(t *testing.T) {
	q := parse(t, `exists x in S`).(*Quant)
	if q.Kind != QExists || q.Pred != nil {
		t.Errorf("bare exists = %v", q)
	}
	q2 := parse(t, `forall x in S : x.a = 1`).(*Quant)
	if q2.Kind != QForall || q2.Pred == nil {
		t.Errorf("forall = %v", q2)
	}
	// forall needs a predicate.
	parseErr(t, `forall x in S`)
	// Nested quantifiers with membership inside.
	q3 := parse(t, `forall z in x.c : exists y in Y : y in z`).(*Quant)
	if q3.Kind != QForall {
		t.Errorf("nested quant = %v", q3)
	}
}

func TestParseTupleVsParen(t *testing.T) {
	// Tuple constructor wins for "(ident = expr)".
	e := parse(t, `(a = 1, b = 2)`)
	ct, ok := e.(*TupleCtor)
	if !ok || len(ct.Names) != 2 {
		t.Fatalf("tuple ctor = %v", e)
	}
	// Parenthesized comparison with a path is unambiguous.
	e2 := parse(t, `(s.a = 1)`)
	if _, ok := e2.(*Binary); !ok {
		t.Fatalf("paren cmp = %T", e2)
	}
	// Extra parens force the comparison reading.
	e3 := parse(t, `((a) = 1)`)
	if _, ok := e3.(*Binary); !ok {
		t.Fatalf("forced cmp = %T", e3)
	}
}

func TestParseSetCtor(t *testing.T) {
	e := parse(t, `{1, 2, 3}`).(*SetCtor)
	if len(e.Elems) != 3 {
		t.Fatalf("set ctor = %v", e)
	}
	if em := parse(t, `{}`).(*SetCtor); len(em.Elems) != 0 {
		t.Fatalf("empty set ctor = %v", em)
	}
}

func TestParsePrecedence(t *testing.T) {
	// or is weaker than and: a or b and c = a or (b and c)
	e := parse(t, `x or y and z`).(*Binary)
	if e.Op != OpOr {
		t.Fatalf("top = %v", e.Op)
	}
	if r, ok := e.R.(*Binary); !ok || r.Op != OpAnd {
		t.Fatalf("right = %v", e.R)
	}
	// Comparison binds tighter than and.
	e2 := parse(t, `a = 1 and b = 2`).(*Binary)
	if e2.Op != OpAnd {
		t.Fatalf("top = %v", e2.Op)
	}
	// Arithmetic precedence: 1 + 2 * 3.
	e3 := parse(t, `1 + 2 * 3`).(*Binary)
	if e3.Op != OpAdd {
		t.Fatalf("top = %v", e3.Op)
	}
	if r, ok := e3.R.(*Binary); !ok || r.Op != OpMul {
		t.Fatalf("right = %v", e3.R)
	}
	// union level sits between comparison and additive.
	e4 := parse(t, `a union b subset c`).(*Binary)
	if e4.Op != OpSubset {
		t.Fatalf("top = %v", e4.Op)
	}
}

func TestParseNotIn(t *testing.T) {
	e := parse(t, `x not in S`).(*Binary)
	if e.Op != OpNotIn {
		t.Fatalf("op = %v", e.Op)
	}
	// "not (x in S)" is logical not over membership.
	e2 := parse(t, `not x in S`).(*Unary)
	if e2.Op != "not" {
		t.Fatalf("unary = %v", e2)
	}
}

func TestParseCalls(t *testing.T) {
	for _, fn := range []string{"count", "sum", "min", "max", "avg", "flatten"} {
		e := parse(t, fn+`(S)`).(*Call)
		if e.Fn != fn || len(e.Args) != 1 {
			t.Errorf("call %s = %v", fn, e)
		}
	}
}

func TestParseLiterals(t *testing.T) {
	if l := parse(t, `940101`).(*Lit); !value.Equal(l.Val, value.Int(940101)) {
		t.Errorf("int lit = %v", l.Val)
	}
	if l := parse(t, `2.5`).(*Lit); !value.Equal(l.Val, value.Float(2.5)) {
		t.Errorf("float lit = %v", l.Val)
	}
	if l := parse(t, `"red"`).(*Lit); !value.Equal(l.Val, value.String("red")) {
		t.Errorf("string lit = %v", l.Val)
	}
	if l := parse(t, `true`).(*Lit); !value.Equal(l.Val, value.Bool(true)) {
		t.Errorf("bool lit = %v", l.Val)
	}
	if l := parse(t, `-5`).(*Unary); l.Op != "-" {
		t.Errorf("negative lit = %v", l)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`select`,
		`select x from`,
		`select x from x`,
		`select x from x in`,
		`select x from x in X where`,
		`x in`,
		`(a = )`,
		`{1, }`,
		`count(`,
		`count()`,
		`select x from x in X trailing`,
		`exists in S`,
	} {
		parseErr(t, src)
	}
}

func TestASTStringRoundTrip(t *testing.T) {
	// String output re-parses to an equal-printing AST (idempotence of the
	// printer through the parser).
	srcs := []string{
		`select s.sname from s in SUPPLIER where s.sname = "s1"`,
		`select (a = 1, b = {1, 2}) from x in X`,
		`exists z in s.parts : not exists p in PART : z = p`,
		`count(S) = 0 or flatten(T) subset U`,
	}
	for _, src := range srcs {
		e1 := parse(t, src)
		e2 := parse(t, e1.String())
		if e1.String() != e2.String() {
			t.Errorf("round trip drifted:\n 1: %s\n 2: %s", e1, e2)
		}
	}
}
