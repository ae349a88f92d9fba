package oosql

import (
	"encoding/binary"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/value"
)

// Text is a query text as one lexer pass leaves it.
type Text struct {
	// Tokens end in a TokEOF token. A literal's token carries its value.
	Tokens []Token
	// Fingerprint, when LexText is given a buffer for it, is the token
	// stream with each literal replaced by its token kind and the number of
	// its equality class; whitespace and comments drop out. Two texts with
	// equal fingerprints parse into one tree but for the values of their
	// classes. It is nil when a literal does not convert: the parser reports
	// that literal.
	Fingerprint []byte
	// Classes are the literals' equality classes, in order of first
	// occurrence: literals of one token kind and one value are one class.
	// Classes[i] is class i's value and Counts[i] its number of literals.
	// Both are set with the fingerprint only.
	Classes []value.Value
	Counts  []int
}

// Lex tokenizes the whole input.
func Lex(src string) ([]Token, error) {
	t, err := LexText(src, nil)
	return t.Tokens, err
}

// LexText tokenizes the whole input and, when fp is not nil, appends the
// text's fingerprint to it.
func LexText(src string, fp []byte) (Text, error) { return lex(src, fp, true) }

// Fingerprint is LexText without the tokens: it appends the text's
// fingerprint to fp, which must not be nil, and returns the fingerprint, the
// classes and their counts, or LexText's error. A prepare that finds the
// fingerprint cached needs nothing more, and only a text that goes on to the
// parser pays for its tokens.
func Fingerprint(src string, fp []byte) (Text, error) { return lex(src, fp, false) }

// lex is the one pass of LexText and Fingerprint over the tokens of src,
// keeping them when tokens is set.
func lex(src string, fp []byte, tokens bool) (Text, error) {
	lx := lexer{src: src, line: 1, col: 1}
	var t Text
	if tokens {
		t.Tokens = make([]Token, 0, len(src)/3+2)
	}
	for {
		tok, err := lx.next()
		if err != nil {
			return Text{}, err
		}
		if tokens {
			t.Tokens = append(t.Tokens, tok)
		}
		if fp != nil {
			fp = t.key(fp, tok)
		}
		if tok.Kind == TokEOF {
			t.Fingerprint = fp
			return t, nil
		}
	}
}

// key appends tok to the fingerprint fp, or returns nil if fp is nil or tok
// is a literal that did not convert.
func (t *Text) key(fp []byte, tok Token) []byte {
	fp = append(fp, byte(tok.Kind))
	switch tok.Kind {
	case TokEOF:
		return fp
	case TokIdent, TokKeyword, TokSym:
		return append(binary.AppendUvarint(fp, uint64(len(tok.Text))), tok.Text...)
	}
	if tok.Val == nil {
		return nil
	}
	c := 0
	for c < len(t.Classes) && !value.Equal(t.Classes[c], tok.Val) {
		c++
	}
	if c == len(t.Classes) {
		t.Classes = append(t.Classes, tok.Val)
		t.Counts = append(t.Counts, 0)
	}
	t.Counts[c]++
	return binary.AppendUvarint(fp, uint64(c))
}

// lexer is the state of one pass over a text.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func (lx *lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// skip moves past n bytes of one line.
func (lx *lexer) skip(n int) {
	lx.off += n
	lx.col += n
}

// next returns the next token.
func (lx *lexer) next() (Token, error) {
	lx.skipSpaceAndComments()
	start := Pos{Line: lx.line, Col: lx.col}
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.src[lx.off]
	switch {
	case c >= '0' && c <= '9':
		return lx.lexNumber(start), nil
	case c == '"':
		return lx.lexString(start)
	case isIdentStart(lx.rune()):
		return lx.lexIdent(start), nil
	}
	n := 1
	switch c {
	case '<':
		if d := lx.peek2(); d == '=' || d == '>' {
			n = 2
		}
	case '>':
		if lx.peek2() == '=' {
			n = 2
		}
	case '(', ')', '{', '}', ',', '.', '=', '+', '-', '*', '/', ':':
	default:
		_, size := utf8.DecodeRuneInString(lx.src[lx.off:])
		return Token{}, errf(start, "unexpected character %q", lx.src[lx.off:lx.off+size])
	}
	text := lx.src[lx.off : lx.off+n]
	lx.skip(n)
	return Token{Kind: TokSym, Text: text, Pos: start}, nil
}

// rune returns the character at the offset, utf8.RuneError past the end or
// at a byte that starts none.
func (lx *lexer) rune() rune {
	if lx.off >= len(lx.src) {
		return utf8.RuneError
	}
	if c := lx.src[lx.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		switch c := lx.src[lx.off]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.advance()
		case c == '-' && lx.peek2() == '-':
			// SQL-style line comment.
			for lx.off < len(lx.src) && lx.src[lx.off] != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '\'' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lexIdent scans an identifier or keyword. Trailing primes are allowed so
// the paper's subquery names (Y′ written Y') work verbatim.
func (lx *lexer) lexIdent(start Pos) Token {
	from := lx.off
	for r := lx.rune(); isIdentPart(r); r = lx.rune() {
		lx.skip(utf8.RuneLen(r))
	}
	text := lx.src[from:lx.off]
	if keywords[text] {
		return Token{Kind: TokKeyword, Text: text, Pos: start}
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}
}

// lexNumber scans an integer or a float and converts it; a literal out of
// range keeps no value, and the parser reports it.
func (lx *lexer) lexNumber(start Pos) Token {
	from := lx.off
	lx.skipDigits()
	if lx.off < len(lx.src) && lx.src[lx.off] == '.' && lx.peek2() >= '0' && lx.peek2() <= '9' {
		lx.skip(1)
		lx.skipDigits()
		text := lx.src[from:lx.off]
		tok := Token{Kind: TokFloat, Text: text, Pos: start}
		if f, err := strconv.ParseFloat(text, 64); err == nil {
			tok.Val = value.Float(f)
		}
		return tok
	}
	text := lx.src[from:lx.off]
	tok := Token{Kind: TokInt, Text: text, Pos: start}
	if n, err := strconv.ParseInt(text, 10, 64); err == nil {
		tok.Val = value.Int(n)
	}
	return tok
}

func (lx *lexer) skipDigits() {
	for lx.off < len(lx.src) && lx.src[lx.off] >= '0' && lx.src[lx.off] <= '9' {
		lx.skip(1)
	}
}

// lexString scans a string literal. Its text is a substring of the source
// unless it holds an escape; only then is it built anew.
func (lx *lexer) lexString(start Pos) (Token, error) {
	lx.advance() // opening quote
	from := lx.off
	var b strings.Builder
	escaped := false
	for {
		if lx.off >= len(lx.src) {
			return Token{}, errf(start, "unterminated string literal")
		}
		c := lx.advance()
		if c == '"' {
			text := lx.src[from : lx.off-1]
			if escaped {
				text = b.String()
			}
			return Token{Kind: TokString, Text: text, Val: value.String(text), Pos: start}, nil
		}
		if c == '\\' {
			if !escaped {
				b.WriteString(lx.src[from : lx.off-1])
				escaped = true
			}
			if lx.off >= len(lx.src) {
				return Token{}, errf(start, "unterminated string escape")
			}
			esc := lx.advance()
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(esc)
			default:
				return Token{}, errf(start, "unknown string escape \\%s", string(esc))
			}
			continue
		}
		if escaped {
			b.WriteByte(c)
		}
	}
}
