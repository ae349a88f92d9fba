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
// keeping them when tokens is set. Only a kept token or an error asks for
// its position.
func lex(src string, fp []byte, tokens bool) (Text, error) {
	lx := lexer{src: src, line: 1}
	var t Text
	if tokens {
		t.Tokens = make([]Token, 0, len(src)/3+2)
	}
	for {
		kind, text, val, err := lx.next()
		if err != nil {
			return Text{}, err
		}
		if tokens {
			t.Tokens = append(t.Tokens, Token{Kind: kind, Text: text, Val: val, Pos: lx.pos(lx.start)})
		}
		if fp != nil {
			fp = t.key(fp, kind, text, val)
		}
		if kind == TokEOF {
			t.Fingerprint = fp
			return t, nil
		}
	}
}

// key appends a token to the fingerprint fp, or returns nil if fp is nil or
// the token is a literal that did not convert.
func (t *Text) key(fp []byte, kind TokKind, text string, val value.Value) []byte {
	fp = append(fp, byte(kind))
	switch kind {
	case TokEOF:
		return fp
	case TokIdent, TokKeyword, TokSym:
		return append(binary.AppendUvarint(fp, uint64(len(text))), text...)
	}
	if val == nil {
		return nil
	}
	c := 0
	for c < len(t.Classes) && !value.Equal(t.Classes[c], val) {
		c++
	}
	if c == len(t.Classes) {
		t.Classes = append(t.Classes, val)
		t.Counts = append(t.Counts, 0)
	}
	t.Counts[c]++
	return binary.AppendUvarint(fp, uint64(c))
}

// lexer is the state of one pass over a text: the offset of the scan and of
// the current token's first byte, and the line of offset seen, the last one
// whose position was asked for, with the offset of that line's first byte.
type lexer struct {
	src                   string
	off, start            int
	line, lineStart, seen int
}

// pos is the position of offset off, at or after the last one asked for: its
// line and its byte's offset from the line's start, both 1-based.
func (lx *lexer) pos(off int) Pos {
	for {
		i := strings.IndexByte(lx.src[lx.seen:off], '\n')
		if i < 0 {
			break
		}
		lx.seen += i + 1
		lx.line, lx.lineStart = lx.line+1, lx.seen
	}
	lx.seen = off
	return Pos{Line: lx.line, Col: off - lx.lineStart + 1}
}

func (lx *lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

// Byte classes: ASCII bytes are classified by the table, and a byte ≥
// utf8.RuneSelf (nonASCII) starts a character the unicode tables classify.
const (
	space      = 1 << iota // ' ', '\t', '\n', '\r'
	identStart             // A–Z, a–z, '_'
	identPart              // identStart, a digit or the prime '\''
	digit                  // 0–9
	symbol                 // a symbol's first byte
	nonASCII
)

var class = func() (t [256]uint8) {
	for _, c := range " \t\n\r" {
		t[c] = space
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = identStart|identPart, identStart|identPart
	}
	t['_'], t['\''] = identStart|identPart, identPart
	for c := '0'; c <= '9'; c++ {
		t[c] = identPart | digit
	}
	for _, c := range "(){},.=+-*/:<>" {
		t[c] = symbol
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = nonASCII
	}
	return t
}()

// next scans the next token: its kind, text and, a literal's, value.
func (lx *lexer) next() (TokKind, string, value.Value, error) {
	lx.skipSpaceAndComments()
	from := lx.off
	if lx.start = from; from >= len(lx.src) {
		return TokEOF, "", nil, nil
	}
	c := lx.src[from]
	switch k := class[c]; {
	case k&digit != 0:
		return lx.lexNumber()
	case c == '"':
		return lx.lexString()
	case k&identStart != 0:
		return lx.lexIdent(), lx.src[from:lx.off], nil, nil
	case k&symbol != 0:
		if d := lx.peek2(); c == '<' && (d == '=' || d == '>') || c == '>' && d == '=' {
			lx.off++
		}
		lx.off++
		return TokSym, lx.src[from:lx.off], nil, nil
	case k&nonASCII != 0:
		if r, _ := utf8.DecodeRuneInString(lx.src[from:]); unicode.IsLetter(r) {
			return lx.lexIdent(), lx.src[from:lx.off], nil, nil
		}
	}
	_, size := utf8.DecodeRuneInString(lx.src[from:])
	return 0, "", nil, errf(lx.pos(lx.start), "unexpected character %q", lx.src[from:from+size])
}

func (lx *lexer) skipSpaceAndComments() {
	src, off := lx.src, lx.off
	for off < len(src) {
		if c := src[off]; class[c]&space != 0 {
			off++
		} else if c != '-' || off+1 == len(src) || src[off+1] != '-' {
			break
		} else if i := strings.IndexByte(src[off:], '\n'); i >= 0 { // an SQL-style line comment
			off += i
		} else {
			off = len(src)
		}
	}
	lx.off = off
}

// lexIdent scans an identifier or keyword. Trailing primes are allowed so
// the paper's subquery names (Y′ written Y') work verbatim.
func (lx *lexer) lexIdent() TokKind {
	src, from, off := lx.src, lx.off, lx.off
	for off < len(src) {
		k := class[src[off]]
		if k&identPart != 0 {
			off++
			continue
		}
		if k&nonASCII == 0 {
			break
		}
		r, size := utf8.DecodeRuneInString(src[off:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		off += size
	}
	lx.off = off
	if isKeyword(src[from:off]) {
		return TokKeyword
	}
	return TokIdent
}

// lexNumber scans an integer or a float and converts it; a literal out of
// range keeps no value, and the parser reports it.
func (lx *lexer) lexNumber() (TokKind, string, value.Value, error) {
	from := lx.off
	lx.skipDigits()
	if lx.off < len(lx.src) && lx.src[lx.off] == '.' && class[lx.peek2()]&digit != 0 {
		lx.off++
		lx.skipDigits()
		text := lx.src[from:lx.off]
		if f, err := strconv.ParseFloat(text, 64); err == nil {
			return TokFloat, text, value.Float(f), nil
		}
		return TokFloat, text, nil, nil
	}
	text := lx.src[from:lx.off]
	if n, err := strconv.ParseInt(text, 10, 64); err == nil {
		return TokInt, text, value.Int(n), nil
	}
	return TokInt, text, nil, nil
}

func (lx *lexer) skipDigits() {
	for lx.off < len(lx.src) && class[lx.src[lx.off]]&digit != 0 {
		lx.off++
	}
}

// lexString scans a string literal. Its text is a substring of the source
// unless it holds an escape; only then is it built anew.
func (lx *lexer) lexString() (TokKind, string, value.Value, error) {
	lx.off++ // opening quote
	from := lx.off
	var b strings.Builder
	escaped := false
	for {
		if lx.off >= len(lx.src) {
			return 0, "", nil, errf(lx.pos(lx.start), "unterminated string literal")
		}
		c := lx.src[lx.off]
		lx.off++
		switch c {
		case '"':
			text := lx.src[from : lx.off-1]
			if escaped {
				text = b.String()
			}
			return TokString, text, value.String(text), nil
		case '\\':
			if !escaped {
				b.WriteString(lx.src[from : lx.off-1])
				escaped = true
			}
			if lx.off >= len(lx.src) {
				return 0, "", nil, errf(lx.pos(lx.start), "unterminated string escape")
			}
			esc := lx.src[lx.off]
			lx.off++
			switch esc {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"', '\\':
				b.WriteByte(esc)
			default:
				return 0, "", nil, errf(lx.pos(lx.start), "unknown string escape \\%s", string(esc))
			}
			continue
		}
		if escaped {
			b.WriteByte(c)
		}
	}
}
