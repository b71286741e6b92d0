// Package js implements a from-scratch interpreter for the subset of
// JavaScript (roughly ECMAScript 3) that AJAX applications of the paper's
// era use, in place of the Rhino engine of the thesis implementation.
//
// Its contract (DESIGN.md "Interpreter contract") has three parts. The
// whole language the parser accepts: every statement, operator and
// literal, closures, arguments, new and prototypes. The embedding API the
// browser and the crawler call: Parse, ParseFunction, New, Run, Call,
// CompileFunction, host objects and natives, the budgets, and
// TopUserFrame — the live call stack's innermost user function with its
// actual arguments, which hot-node detection keys on (§4.4.2). And a
// library of eight globals: undefined, NaN, Infinity, parseInt,
// encodeURIComponent, Error, TypeError and JSON with parse only.
// Strings and arrays expose length and indices, and no value has methods:
// a call outside the library fails its handler with a TypeError.
package js

import "fmt"

// TokenType identifies a lexical token.
type TokenType int

// Token kinds. Punctuation and operators each get their own type so the
// parser can switch on them directly.
const (
	EOF TokenType = iota
	IDENT
	NUMBER
	STRING
	KEYWORD

	// Punctuation.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	SEMI     // ;
	COMMA    // ,
	DOT      // .
	COLON    // :
	QUESTION // ?

	// Operators.
	ASSIGN        // =
	PLUS          // +
	MINUS         // -
	STAR          // *
	SLASH         // /
	PERCENT       // %
	PLUSASSIGN    // +=
	MINUSASSIGN   // -=
	STARASSIGN    // *=
	SLASHASSIGN   // /=
	PERCENTASSIGN // %=
	INC           // ++
	DEC           // --
	EQ            // ==
	NEQ           // !=
	SEQ           // ===
	SNEQ          // !==
	LT            // <
	GT            // >
	LE            // <=
	GE            // >=
	AND           // &&
	OR            // ||
	NOT           // !
	BITAND        // &
	BITOR         // |
	BITXOR        // ^
	BITNOT        // ~
	SHL           // <<
	SHR           // >>
	USHR          // >>>
)

var keywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true, "else": true,
	"while": true, "do": true, "for": true, "in": true, "break": true,
	"continue": true, "new": true, "delete": true, "typeof": true,
	"void": true, "this": true, "null": true, "true": true, "false": true,
	"throw": true, "try": true, "catch": true, "finally": true,
	"switch": true, "case": true, "default": true, "instanceof": true,
}

// Token is one lexical token with its source position.
type Token struct {
	Type TokenType
	Lit  string // literal text: identifier name, keyword, string value (decoded), number text
	Num  float64
	Line int
	Col  int
	// NewlineBefore reports whether a line terminator occurred between
	// the previous token and this one; used for automatic semicolon
	// insertion and the restricted `return` production.
	NewlineBefore bool
}

func (t Token) String() string {
	switch t.Type {
	case IDENT, KEYWORD:
		return t.Lit
	case NUMBER:
		return t.Lit
	case STRING:
		return fmt.Sprintf("%q", t.Lit)
	case EOF:
		return "<eof>"
	}
	return t.Lit
}

// SyntaxError describes a lexing or parsing failure with position info.
type SyntaxError struct {
	Msg  string
	Line int
	Col  int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("js: syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}
