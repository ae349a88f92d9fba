package oosql

import "repro/internal/value"

// Parser is a recursive-descent parser for OOSQL.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a complete query (one expression followed by end of input).
func Parse(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return ParseTokens(toks)
}

// ParseTokens parses the tokens of a complete query, as Lex and LexText
// return them.
func ParseTokens(toks []Token) (Expr, error) {
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != TokEOF {
		return nil, errf(p.cur().Pos, "unexpected %s after query", p.cur())
	}
	return e, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) atSym(sym string) bool {
	t := p.cur()
	return t.Kind == TokSym && t.Text == sym
}

func (p *Parser) eatKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) eatSym(sym string) bool {
	if p.atSym(sym) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		return errf(p.cur().Pos, "expected %q, found %s", kw, p.cur())
	}
	return nil
}

func (p *Parser) expectSym(sym string) error {
	if !p.eatSym(sym) {
		return errf(p.cur().Pos, "expected %q, found %s", sym, p.cur())
	}
	return nil
}

func (p *Parser) expectIdent() (string, Pos, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", t.Pos, errf(t.Pos, "expected identifier, found %s", t)
	}
	p.pos++
	return t.Text, t.Pos, nil
}

// parseExpr parses an or-expression (lowest precedence).
func (p *Parser) parseExpr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		at := p.next().Pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r, At: at}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		at := p.next().Pos
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r, At: at}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.atKeyword("not") {
		at := p.next().Pos
		// "not in" is handled at the comparison level; a bare "not" here is
		// logical negation.
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "not", X: x, At: at}, nil
	}
	return p.parseCmp()
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseSet()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	var op BinOp
	switch {
	case t.Kind == TokSym && (t.Text == "=" || t.Text == "<>" || t.Text == "<" ||
		t.Text == "<=" || t.Text == ">" || t.Text == ">="):
		op = BinOp(t.Text)
		p.pos++
	case t.Kind == TokKeyword && t.Text == "in":
		op = OpIn
		p.pos++
	case t.Kind == TokKeyword && t.Text == "not" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokKeyword && p.toks[p.pos+1].Text == "in":
		op = OpNotIn
		p.pos += 2
	case t.Kind == TokKeyword && (t.Text == "subset" || t.Text == "psubset" ||
		t.Text == "superset" || t.Text == "psuperset" || t.Text == "contains"):
		op = BinOp(t.Text)
		p.pos++
	default:
		return l, nil
	}
	r, err := p.parseSet()
	if err != nil {
		return nil, err
	}
	return &Binary{Op: op, L: l, R: r, At: t.Pos}, nil
}

func (p *Parser) parseSet() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokKeyword || (t.Text != "union" && t.Text != "intersect" && t.Text != "minus") {
			return l, nil
		}
		p.pos++
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: BinOp(t.Text), L: l, R: r, At: t.Pos}
	}
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.atSym("+") || p.atSym("-") {
		t := p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: BinOp(t.Text), L: l, R: r, At: t.Pos}
	}
	return l, nil
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atSym("*") || p.atSym("/") {
		t := p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: BinOp(t.Text), L: l, R: r, At: t.Pos}
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.atSym("-") {
		at := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "-", X: x, At: at}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.atSym(".") {
		at := p.next().Pos
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		e = &FieldAcc{X: e, Name: name, At: at}
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt, TokFloat, TokString:
		p.pos++
		switch {
		case t.Val != nil:
		case t.Kind == TokInt:
			return nil, errf(t.Pos, "bad integer literal %q", t.Text)
		default:
			return nil, errf(t.Pos, "bad float literal %q", t.Text)
		}
		return &Lit{Val: t.Val, At: t.Pos}, nil
	case TokIdent:
		p.pos++
		return &Ident{Name: t.Text, At: t.Pos}, nil
	case TokKeyword:
		switch t.Text {
		case "true":
			p.pos++
			return &Lit{Val: value.Bool(true), At: t.Pos}, nil
		case "false":
			p.pos++
			return &Lit{Val: value.Bool(false), At: t.Pos}, nil
		case "select":
			return p.parseSFW()
		case "exists", "forall":
			return p.parseQuant()
		case "count", "sum", "min", "max", "avg", "flatten":
			return p.parseCall()
		}
		return nil, errf(t.Pos, "unexpected keyword %s", t)
	case TokSym:
		switch t.Text {
		case "(":
			return p.parseParenOrTuple()
		case "{":
			return p.parseSetCtor()
		}
	}
	return nil, errf(t.Pos, "unexpected %s", t)
}

// parseParenOrTuple disambiguates "(expr)" from the tuple constructor
// "(name = expr, ...)". A leading "ident =" selects the tuple reading.
func (p *Parser) parseParenOrTuple() (Expr, error) {
	open := p.next() // "("
	if p.cur().Kind == TokIdent && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokSym && p.toks[p.pos+1].Text == "=" {
		ctor := &TupleCtor{At: open.Pos}
		for {
			name, _, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym("="); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ctor.Names = append(ctor.Names, name)
			ctor.Elems = append(ctor.Elems, e)
			if p.eatSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return ctor, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parseSetCtor() (Expr, error) {
	open := p.next() // "{"
	ctor := &SetCtor{At: open.Pos}
	if p.eatSym("}") {
		return ctor, nil
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ctor.Elems = append(ctor.Elems, e)
		if p.eatSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	return ctor, nil
}

func (p *Parser) parseSFW() (Expr, error) {
	at := p.next().Pos // "select"
	sel, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	v, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("in"); err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	sfw := &SFW{Sel: sel, Var: v, From: from, At: at}
	if p.eatKeyword("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sfw.Where = w
	}
	for p.eatKeyword("with") {
		name, _, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sfw.Withs = append(sfw.Withs, WithBinding{Name: name, Val: val})
	}
	return sfw, nil
}

func (p *Parser) parseQuant() (Expr, error) {
	t := p.next() // "exists" or "forall"
	kind := QExists
	if t.Text == "forall" {
		kind = QForall
	}
	v, _, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("in"); err != nil {
		return nil, err
	}
	// The range is a set-level expression so that a following ":" starts the
	// predicate rather than being swallowed by the range.
	src, err := p.parseSet()
	if err != nil {
		return nil, err
	}
	q := &Quant{Kind: kind, Var: v, Src: src, At: t.Pos}
	if p.eatSym(":") {
		pred, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Pred = pred
	} else if kind == QForall {
		return nil, errf(t.Pos, "forall requires a predicate (\": p\")")
	}
	return q, nil
}

func (p *Parser) parseCall() (Expr, error) {
	t := p.next() // function keyword
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &Call{Fn: t.Text, Args: []Expr{arg}, At: t.Pos}, nil
}
