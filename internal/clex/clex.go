// Package clex implements a lexical analyzer for the C subset used by the
// Open-OMP corpus. It produces a flat token stream with source positions,
// treating `#pragma` preprocessor lines as first-class tokens so that OpenMP
// directives survive lexing (they are comments to a C compiler but labels to
// us, mirroring pycparser's handling in the paper's pipeline).
package clex

import (
	"fmt"
	"strings"
)

// Kind classifies a lexical token.
type Kind int

const (
	// EOF marks the end of the token stream.
	EOF Kind = iota
	// Ident is an identifier that is not a reserved keyword.
	Ident
	// Keyword is a reserved C keyword such as `for` or `register`.
	Keyword
	// IntLit is an integer literal, including hex and octal forms.
	IntLit
	// FloatLit is a floating-point literal.
	FloatLit
	// CharLit is a character literal including its quotes.
	CharLit
	// StringLit is a string literal including its quotes.
	StringLit
	// Punct is an operator or punctuation token.
	Punct
	// Pragma is a full `#pragma ...` line (text excludes the leading '#').
	Pragma
)

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case Keyword:
		return "Keyword"
	case IntLit:
		return "IntLit"
	case FloatLit:
		return "FloatLit"
	case CharLit:
		return "CharLit"
	case StringLit:
		return "StringLit"
	case Punct:
		return "Punct"
	case Pragma:
		return "Pragma"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Token is a single lexical token with its source position (1-based).
type Token struct {
	Kind Kind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

// keywords is the set of reserved words recognized by the lexer. It covers
// C89/C99 keywords that appear in the corpus plus storage-class specifiers
// (`register`, `restrict`) that the paper highlights as S2S parser breakers.
var keywords = map[string]bool{
	"auto": true, "break": true, "case": true, "char": true,
	"const": true, "continue": true, "default": true, "do": true,
	"double": true, "else": true, "enum": true, "extern": true,
	"float": true, "for": true, "goto": true, "if": true,
	"inline": true, "int": true, "long": true, "register": true,
	"restrict": true, "return": true, "short": true, "signed": true,
	"sizeof": true, "static": true, "struct": true, "switch": true,
	"typedef": true, "union": true, "unsigned": true, "void": true,
	"volatile": true, "while": true,
}

// Lexer scans C source text into tokens.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Append tokenizes src onto dst and returns the extended slice — for callers
// that reuse one token buffer across many sources (the parser). On error the
// tokens scanned so far are returned with it.
func Append(dst []Token, src string) ([]Token, error) {
	lx := Lexer{src: src, line: 1, col: 1}
	for {
		t, err := lx.Next()
		if err != nil {
			return dst, err
		}
		dst = append(dst, t)
		if t.Kind == EOF {
			return dst, nil
		}
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// Error is a lexical error carrying its 1-based source position, so
// consumers that skip-and-report unlexable files (the repo scanner) can
// point at the offending line without parsing the message text.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("clex: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

func (l *Lexer) errorf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

// skipSpaceAndComments consumes whitespace and // and /* */ comments.
func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token in the stream.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if l.pos >= len(l.src) {
		return Token{Kind: EOF, Line: l.line, Col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.peek()

	switch {
	case c == '#':
		return l.lexPreprocessor(line, col)
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := Ident
		if keywords[text] {
			kind = Keyword
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
	case isDigit(c) || (c == '.' && isDigit(l.peekAt(1))):
		return l.lexNumber(line, col)
	case c == '\'':
		return l.lexChar(line, col)
	case c == '"':
		return l.lexString(line, col)
	default:
		n := l.operatorLen(c)
		if n == 0 {
			return Token{}, l.errorf("unexpected character %q", c)
		}
		// Operators hold no newline, so the column alone moves.
		op := l.src[l.pos : l.pos+n]
		l.pos += n
		l.col += n
		return Token{Kind: Punct, Text: op, Line: line, Col: col}, nil
	}
}

// operatorLen returns the length of the operator starting with c at the
// current position, or 0 when there is none. It dispatches on c and keeps
// maximal munch: every operator is one byte, that byte doubled, either form
// followed by '=', or one of "->" and "...".
func (l *Lexer) operatorLen(c byte) int {
	c1, c2 := l.peekAt(1), l.peekAt(2)
	switch c {
	case '?', ':', ';', ',', '(', ')', '[', ']', '{', '}', '~':
		return 1
	case '.':
		if c1 == '.' && c2 == '.' {
			return 3
		}
		return 1
	case '<', '>':
		if c1 == c && c2 == '=' {
			return 3
		}
		fallthrough
	case '+', '-', '&', '|':
		if c1 == c || (c == '-' && c1 == '>') {
			return 2
		}
		fallthrough
	case '*', '/', '%', '=', '!', '^':
		if c1 == '=' {
			return 2
		}
		return 1
	}
	return 0
}

// lexPreprocessor handles '#...' lines. `#pragma` lines become Pragma tokens;
// all other preprocessor lines (includes, defines) are skipped, matching the
// paper's corpus preprocessing which strips everything but the pragmas.
func (l *Lexer) lexPreprocessor(line, col int) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && l.peek() != '\n' {
		// Line continuations keep the directive on one logical line.
		if l.peek() == '\\' && l.peekAt(1) == '\n' {
			l.advance()
			l.advance()
			continue
		}
		l.advance()
	}
	text := l.src[start:l.pos]
	text = strings.ReplaceAll(text, "\\\n", " ")
	trimmed := strings.TrimSpace(strings.TrimPrefix(text, "#"))
	if strings.HasPrefix(trimmed, "pragma") {
		return Token{Kind: Pragma, Text: trimmed, Line: line, Col: col}, nil
	}
	// Skip the directive and continue with the next token.
	return l.Next()
}

func (l *Lexer) lexNumber(line, col int) (Token, error) {
	start := l.pos
	isFloat := false
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHex(l.peek()) {
			l.advance()
		}
	} else {
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.pos < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(l.peekAt(2))) {
				isFloat = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.pos < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	// Suffixes: u, l, f combinations.
	for l.pos < len(l.src) {
		switch l.peek() {
		case 'u', 'U', 'l', 'L':
			l.advance()
		case 'f', 'F':
			isFloat = true
			l.advance()
		default:
			goto done
		}
	}
done:
	kind := IntLit
	if isFloat {
		kind = FloatLit
	}
	return Token{Kind: kind, Text: l.src[start:l.pos], Line: line, Col: col}, nil
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (l *Lexer) lexChar(line, col int) (Token, error) {
	start := l.pos
	l.advance() // opening quote
	for l.pos < len(l.src) {
		c := l.advance()
		if c == '\\' && l.pos < len(l.src) {
			l.advance()
			continue
		}
		if c == '\'' {
			return Token{Kind: CharLit, Text: l.src[start:l.pos], Line: line, Col: col}, nil
		}
		if c == '\n' {
			break
		}
	}
	return Token{}, l.errorf("unterminated character literal")
}

func (l *Lexer) lexString(line, col int) (Token, error) {
	start := l.pos
	l.advance() // opening quote
	for l.pos < len(l.src) {
		c := l.advance()
		if c == '\\' && l.pos < len(l.src) {
			l.advance()
			continue
		}
		if c == '"' {
			return Token{Kind: StringLit, Text: l.src[start:l.pos], Line: line, Col: col}, nil
		}
		if c == '\n' {
			break
		}
	}
	return Token{}, l.errorf("unterminated string literal")
}
