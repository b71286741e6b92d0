package js

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer turns JavaScript source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// lexAll tokenizes the whole input.
func lexAll(src string) ([]Token, error) {
	lx := newLexer(src)
	var toks []Token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Type == EOF {
			return toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...interface{}) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Line: l.line, Col: l.col}
}

func (l *lexer) peekByteAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance(n int) {
	for i := 0; i < n && l.pos < len(l.src); i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

// skipSpace consumes whitespace and comments; it reports whether a line
// terminator was crossed.
func (l *lexer) skipSpace() (newline bool, err error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			newline = true
			l.advance(1)
		case c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v':
			l.advance(1)
		case c == '/' && l.peekByteAt(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case c == '/' && l.peekByteAt(1) == '*':
			l.advance(2)
			closed := false
			for l.pos < len(l.src) {
				if l.src[l.pos] == '*' && l.peekByteAt(1) == '/' {
					l.advance(2)
					closed = true
					break
				}
				if l.src[l.pos] == '\n' {
					newline = true
				}
				l.advance(1)
			}
			if !closed {
				return newline, l.errf("unterminated block comment")
			}
		default:
			return newline, nil
		}
	}
	return newline, nil
}

func (l *lexer) next() (Token, error) {
	newline, err := l.skipSpace()
	if err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line, Col: l.col, NewlineBefore: newline}
	if l.pos >= len(l.src) {
		tok.Type = EOF
		return tok, nil
	}
	c := l.src[l.pos]
	switch {
	case c >= utf8.RuneSelf:
		// Multi-byte rune: identifiers only; anything else is an error
		// (never loop without consuming input).
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentStart(r) {
			return Token{}, l.errf("unexpected character %q", string(r))
		}
		return l.ident(tok)
	case isIdentStart(rune(c)):
		return l.ident(tok)
	case c >= '0' && c <= '9':
		return l.number(tok)
	case c == '.' && isDigitByte(l.peekByteAt(1)):
		return l.number(tok)
	case c == '"' || c == '\'':
		return l.str(tok)
	}
	// Operators and punctuation, longest match first.
	type opEntry struct {
		text string
		typ  TokenType
	}
	ops := [...]opEntry{
		{">>>", USHR}, {"===", SEQ}, {"!==", SNEQ},
		{"==", EQ}, {"!=", NEQ}, {"<=", LE}, {">=", GE},
		{"&&", AND}, {"||", OR}, {"++", INC}, {"--", DEC},
		{"+=", PLUSASSIGN}, {"-=", MINUSASSIGN}, {"*=", STARASSIGN},
		{"/=", SLASHASSIGN}, {"%=", PERCENTASSIGN},
		{"<<", SHL}, {">>", SHR},
		{"(", LPAREN}, {")", RPAREN}, {"{", LBRACE}, {"}", RBRACE},
		{"[", LBRACKET}, {"]", RBRACKET}, {";", SEMI}, {",", COMMA},
		{".", DOT}, {":", COLON}, {"?", QUESTION}, {"=", ASSIGN},
		{"+", PLUS}, {"-", MINUS}, {"*", STAR}, {"/", SLASH},
		{"%", PERCENT}, {"<", LT}, {">", GT}, {"!", NOT},
		{"&", BITAND}, {"|", BITOR}, {"^", BITXOR}, {"~", BITNOT},
	}
	rest := l.src[l.pos:]
	for _, op := range ops {
		if strings.HasPrefix(rest, op.text) {
			tok.Type = op.typ
			tok.Lit = op.text
			l.advance(len(op.text))
			return tok, nil
		}
	}
	return Token{}, l.errf("unexpected character %q", string(c))
}

func (l *lexer) ident(tok Token) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.advance(size)
	}
	name := l.src[start:l.pos]
	tok.Lit = name
	if keywords[name] {
		tok.Type = KEYWORD
	} else {
		tok.Type = IDENT
	}
	return tok, nil
}

func (l *lexer) number(tok Token) (Token, error) {
	start := l.pos
	s := l.src
	if s[l.pos] == '0' && (l.peekByteAt(1) == 'x' || l.peekByteAt(1) == 'X') {
		l.advance(2)
		digits := 0
		for l.pos < len(s) && isHexByte(s[l.pos]) {
			l.advance(1)
			digits++
		}
		if digits == 0 {
			return Token{}, l.errf("malformed hex literal")
		}
		text := s[start:l.pos]
		n, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			return Token{}, l.errf("bad hex literal %q", text)
		}
		tok.Type = NUMBER
		tok.Lit = text
		tok.Num = float64(n)
		return tok, nil
	}
	for l.pos < len(s) && isDigitByte(s[l.pos]) {
		l.advance(1)
	}
	if l.pos < len(s) && s[l.pos] == '.' {
		l.advance(1)
		for l.pos < len(s) && isDigitByte(s[l.pos]) {
			l.advance(1)
		}
	}
	if l.pos < len(s) && (s[l.pos] == 'e' || s[l.pos] == 'E') {
		save := l.pos
		l.advance(1)
		if l.pos < len(s) && (s[l.pos] == '+' || s[l.pos] == '-') {
			l.advance(1)
		}
		if l.pos < len(s) && isDigitByte(s[l.pos]) {
			for l.pos < len(s) && isDigitByte(s[l.pos]) {
				l.advance(1)
			}
		} else {
			// Not an exponent after all (e.g. `1e` followed by ident).
			l.pos = save
		}
	}
	text := s[start:l.pos]
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return Token{}, l.errf("bad number literal %q", text)
	}
	tok.Type = NUMBER
	tok.Lit = text
	tok.Num = f
	return tok, nil
}

func (l *lexer) str(tok Token) (Token, error) {
	quote := l.src[l.pos]
	l.advance(1)
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated string literal")
		}
		c := l.src[l.pos]
		if c == quote {
			l.advance(1)
			break
		}
		if c == '\n' {
			return Token{}, l.errf("newline in string literal")
		}
		if c != '\\' {
			b.WriteByte(c)
			l.advance(1)
			continue
		}
		// Escape sequence.
		l.advance(1)
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated escape")
		}
		e := l.src[l.pos]
		switch e {
		case 'n':
			b.WriteByte('\n')
			l.advance(1)
		case 't':
			b.WriteByte('\t')
			l.advance(1)
		case 'r':
			b.WriteByte('\r')
			l.advance(1)
		case 'b':
			b.WriteByte('\b')
			l.advance(1)
		case 'f':
			b.WriteByte('\f')
			l.advance(1)
		case 'v':
			b.WriteByte('\v')
			l.advance(1)
		case '0':
			b.WriteByte(0)
			l.advance(1)
		case 'x':
			if l.pos+2 >= len(l.src) || !isHexByte(l.src[l.pos+1]) || !isHexByte(l.src[l.pos+2]) {
				return Token{}, l.errf("bad \\x escape")
			}
			n, _ := strconv.ParseUint(l.src[l.pos+1:l.pos+3], 16, 16)
			b.WriteRune(rune(n))
			l.advance(3)
		case 'u':
			if l.pos+4 >= len(l.src) {
				return Token{}, l.errf("bad \\u escape")
			}
			hx := l.src[l.pos+1 : l.pos+5]
			n, err := strconv.ParseUint(hx, 16, 32)
			if err != nil {
				return Token{}, l.errf("bad \\u escape %q", hx)
			}
			b.WriteRune(rune(n))
			l.advance(5)
		case '\n':
			// Line continuation.
			l.advance(1)
		default:
			b.WriteByte(e)
			l.advance(1)
		}
	}
	tok.Type = STRING
	tok.Lit = b.String()
	return tok, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
}

func isDigitByte(b byte) bool { return b >= '0' && b <= '9' }

func isHexByte(b byte) bool {
	return b >= '0' && b <= '9' || b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}
