package ssd

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file is the one lexical layer under every textual front-end: the ssd
// text syntax (text.go), select-from-where queries, path expressions and
// datalog. They share whitespace, strings, numbers, identifiers and byte
// offsets; a Syntax lists what genuinely differs.

// Tok classifies a token. One-byte punctuation is its own byte ('{', '.'),
// two-byte operators pack both bytes, and the token classes are negative.
type Tok int32

// Token classes. Text holds the payload of all but EOF and Error.
const (
	TokEOF Tok = -(iota + 1)
	TokError
	TokIdent  // letter or '_', then letters, digits, '_' and '-'
	TokString // "..." — Text is the unescaped contents
	TokInt
	TokFloat
	TokQuoted // 'sym' — Text is the contents (Syntax.Quoted only)
)

// The two-byte operators a Syntax may list in Ops.
const (
	TokLE      Tok = '<'<<8 | '='
	TokGE      Tok = '>'<<8 | '='
	TokNE      Tok = '!'<<8 | '='
	TokImplies Tok = ':'<<8 | '-'
)

// Syntax is what one language adds to the shared token set.
type Syntax struct {
	Prefix  string // error prefix: "query", "pathexpr", ...
	Comment string // line-comment introducer, "" for none
	Punct   string // the one-byte punctuation tokens
	Ops     []Tok  // the two-byte operators, tried before Punct
	Quoted  bool   // 'sym' quoted symbols
}

// Scanner is a one-token-lookahead scanner: Tok, Text and Pos describe the
// current token and Next moves to the following one. The first error is
// sticky: Tok stays TokError and Errorf keeps returning that error.
type Scanner struct {
	Tok  Tok
	Text string // payload; the raw source text for punctuation
	Pos  int    // byte offset of the current token's first byte

	syn *Syntax
	src string
	end int // offset just past the current token
	err error
}

// NewScanner returns a scanner positioned on the first token of src.
func NewScanner(syn *Syntax, src string) *Scanner {
	s := &Scanner{syn: syn, src: src}
	s.Next()
	return s
}

// Errorf returns an error located at the current token under the language's
// prefix — or the scan error, if scanning has already failed.
func (s *Scanner) Errorf(format string, args ...any) error {
	if s.err != nil {
		return s.err
	}
	return fmt.Errorf("%s: offset %d: %s", s.syn.Prefix, s.Pos, fmt.Sprintf(format, args...))
}

// fail records a scan error at offset pos.
func (s *Scanner) fail(pos int, msg string) {
	s.Pos = pos
	s.err = s.Errorf("%s", msg)
	s.Tok, s.Text = TokError, ""
}

// Next scans the next token.
func (s *Scanner) Next() {
	if s.err != nil {
		return
	}
	s.skipSpace()
	s.Pos = s.end
	if s.end >= len(s.src) {
		s.Tok, s.Text = TokEOF, ""
		return
	}
	c := s.src[s.end]
	switch {
	case c == '"':
		s.lexString()
		return
	case c == '-' || c >= '0' && c <= '9':
		s.lexNumber()
		return
	case c == '\'' && s.syn.Quoted:
		i := strings.IndexByte(s.src[s.end+1:], '\'')
		if i < 0 {
			s.fail(s.Pos, "unterminated quoted symbol")
			return
		}
		s.Tok, s.Text = TokQuoted, s.src[s.end+1:s.end+1+i]
		s.end += i + 2
		return
	}
	if s.end+1 < len(s.src) {
		two := Tok(c)<<8 | Tok(s.src[s.end+1])
		for _, op := range s.syn.Ops {
			if op == two {
				s.punct(two, 2)
				return
			}
		}
	}
	if strings.IndexByte(s.syn.Punct, c) >= 0 {
		s.punct(Tok(c), 1)
		return
	}
	r, _ := utf8.DecodeRuneInString(s.src[s.end:])
	if r == '_' || unicode.IsLetter(r) {
		s.lexIdent()
		return
	}
	s.fail(s.Pos, fmt.Sprintf("unexpected character %q", r))
}

func (s *Scanner) punct(tok Tok, n int) {
	s.Tok, s.Text = tok, s.src[s.end:s.end+n]
	s.end += n
}

func (s *Scanner) skipSpace() {
	for s.end < len(s.src) {
		switch c := s.src[s.end]; {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			s.end++
		case s.syn.Comment != "" && strings.HasPrefix(s.src[s.end:], s.syn.Comment):
			if i := strings.IndexByte(s.src[s.end:], '\n'); i >= 0 {
				s.end += i
			} else {
				s.end = len(s.src)
			}
		default:
			return
		}
	}
}

// lexString scans a double-quoted string. The escapes are exactly the ones
// strconv.Quote emits — \a \b \f \n \r \t \v \\ \" \xHH \uXXXX \UXXXXXXXX —
// so Label.String() of any string is a literal here. Unescaped bytes,
// newlines and invalid UTF-8 included, are taken as they are.
func (s *Scanner) lexString() {
	var b strings.Builder
	i := s.end + 1
	for i < len(s.src) {
		j := strings.IndexAny(s.src[i:], `"\`)
		if j < 0 {
			break
		}
		b.WriteString(s.src[i : i+j])
		i += j
		if s.src[i] == '"' {
			s.Tok, s.Text, s.end = TokString, b.String(), i+1
			return
		}
		// UnquoteChar also takes the octal \NNN, which Quote never writes.
		if i+1 < len(s.src) && s.src[i+1] >= '0' && s.src[i+1] <= '7' {
			s.fail(i, "bad string escape")
			return
		}
		r, multibyte, tail, err := strconv.UnquoteChar(s.src[i:], '"')
		if err != nil {
			s.fail(i, "bad string escape")
			return
		}
		if multibyte {
			b.WriteRune(r)
		} else {
			b.WriteByte(byte(r))
		}
		i = len(s.src) - len(tail)
	}
	s.fail(s.Pos, "unterminated string")
}

// lexNumber scans -?digits(.digits)?([eE][+-]?digits)?. A '.' or exponent
// not followed by a digit is left for the next token, so `3.Title` is int,
// dot, ident and `p(3).` ends a datalog rule.
func (s *Scanner) lexNumber() {
	i := s.end
	if s.src[i] == '-' {
		i++
	}
	digits := func() bool {
		start := i
		for i < len(s.src) && s.src[i] >= '0' && s.src[i] <= '9' {
			i++
		}
		return i > start
	}
	if !digits() {
		s.fail(s.Pos, "malformed number")
		return
	}
	s.Tok = TokInt
	if mark := i; i < len(s.src) && s.src[i] == '.' {
		i++
		if digits() {
			s.Tok = TokFloat
		} else {
			i = mark
		}
	}
	if mark := i; i < len(s.src) && (s.src[i] == 'e' || s.src[i] == 'E') {
		i++
		if i < len(s.src) && (s.src[i] == '+' || s.src[i] == '-') {
			i++
		}
		if digits() {
			s.Tok = TokFloat
		} else {
			i = mark
		}
	}
	s.Text, s.end = s.src[s.end:i], i
}

func (s *Scanner) lexIdent() {
	i := s.end
	for i < len(s.src) {
		r, size := utf8.DecodeRuneInString(s.src[i:])
		if !isIdentCont(r) {
			break
		}
		i += size
	}
	s.Tok, s.Text, s.end = TokIdent, s.src[s.end:i], i
}

func isIdentCont(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// Label converts the current token to the label it denotes and moves past
// it — the one literal rule of every front-end: identifier or quoted
// symbol → symbol (true and false → bool), string, int, float.
func (s *Scanner) Label() (Label, error) {
	var l Label
	switch s.Tok {
	case TokIdent:
		switch s.Text {
		case "true":
			l = Bool(true)
		case "false":
			l = Bool(false)
		default:
			l = Sym(s.Text)
		}
	case TokQuoted:
		l = Sym(s.Text)
	case TokString:
		l = Str(s.Text)
	case TokInt:
		v, err := strconv.ParseInt(s.Text, 10, 64)
		if err != nil {
			return Label{}, s.Errorf("bad integer %q", s.Text)
		}
		l = Int(v)
	case TokFloat:
		v, err := strconv.ParseFloat(s.Text, 64)
		if err != nil {
			return Label{}, s.Errorf("bad float %q", s.Text)
		}
		l = Float(v)
	default:
		return Label{}, s.Errorf("expected a label literal")
	}
	s.Next()
	return l, nil
}
