package js

import "fmt"

// parser is a recursive-descent parser with precedence climbing for
// binary expressions and simplified automatic semicolon insertion.
type parser struct {
	toks []Token
	pos  int
	// hoist targets of the function currently being parsed
	varNames  *[]string
	funcDecls *[]*FuncLit
	// level is the depth in the syntax tree of the node being parsed,
	// peak the deepest level reached since the innermost open chain began
	// (openChain). Neither may pass maxNesting: the resolver and the
	// evaluator recurse as deep as the tree, and a goroutine stack
	// overflow is fatal, not a panic.
	level, peak int
}

// Parse parses a complete script, resolved as global code (resolve.go):
// its top-level declarations are globals, for RunProgram.
func Parse(src string) (*Program, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	resolveProgram(prog)
	return prog, nil
}

// ParseFunction parses src as the body of a function, the way a browser
// compiles an event-handler attribute: its vars and function declarations
// are locals of each call, for CompileFunction.
func ParseFunction(src string) (*Program, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	prog.fn = &FuncLit{Body: prog.Stmts, VarNames: prog.VarNames, FuncDecls: prog.FuncDecls}
	resolveFunc(prog.fn, nil)
	return prog, nil
}

func parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	p.varNames = &prog.VarNames
	p.funcDecls = &prog.FuncDecls
	for !p.at(EOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, s)
	}
	return prog, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(tt TokenType) bool { return p.cur().Type == tt }

func (p *parser) atKw(kw string) bool {
	t := p.cur()
	return t.Type == KEYWORD && t.Lit == kw
}

func (p *parser) eat(tt TokenType) bool {
	if p.at(tt) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) eatKw(kw string) bool {
	if p.atKw(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(tt TokenType, what string) (Token, error) {
	if p.at(tt) {
		return p.next(), nil
	}
	t := p.cur()
	return Token{}, &SyntaxError{
		Msg:  fmt.Sprintf("expected %s, found %q", what, t.String()),
		Line: t.Line, Col: t.Col,
	}
}

// semicolon consumes a statement terminator, applying simplified ASI:
// an explicit ';', or a '}' / EOF / preceding line break all terminate.
func (p *parser) semicolon() error {
	if p.eat(SEMI) {
		return nil
	}
	t := p.cur()
	if t.Type == RBRACE || t.Type == EOF || t.NewlineBefore {
		return nil
	}
	return &SyntaxError{Msg: fmt.Sprintf("expected ';', found %q", t.String()), Line: t.Line, Col: t.Col}
}

func (p *parser) line() int { return p.cur().Line }

// nested parses a node one level below the node in progress.
func (p *parser) nested(parse func() (Node, error)) (Node, error) {
	p.level++
	if err := p.reach(p.level); err != nil {
		return nil, err
	}
	x, err := parse()
	p.level--
	return x, err
}

// reach records that the tree reaches down to level.
func (p *parser) reach(level int) error {
	p.peak = max(p.peak, level)
	if p.peak > maxNesting {
		t := p.cur()
		return &SyntaxError{Msg: fmt.Sprintf("nesting deeper than %d levels", maxNesting), Line: t.Line, Col: t.Col}
	}
	return nil
}

// A left-associative chain — a+b+c, a.b(c)[d] — puts each link's node
// where the chain so far stood and hangs the chain so far below it, one
// level further down, while the parser itself recurses no deeper. So a
// chain tracks the deepest level it has reached: openChain starts
// counting at the chain's own level, link sinks everything parsed so far
// by one, and closeChain folds the chain's peak into the enclosing one.
func (p *parser) openChain() (outer int) {
	outer, p.peak = p.peak, p.level
	return outer
}

func (p *parser) link() error { return p.reach(p.peak + 1) }

func (p *parser) closeChain(outer int) { p.peak = max(p.peak, outer) }

// ---- statements ----

func (p *parser) statement() (Node, error) { return p.nested(p.stmt) }

func (p *parser) stmt() (Node, error) {
	t := p.cur()
	switch {
	case t.Type == SEMI:
		p.next()
		return &Empty{base{t.Line}}, nil
	case t.Type == LBRACE:
		return p.block()
	case t.Type == KEYWORD:
		switch t.Lit {
		case "var":
			s, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			if err := p.semicolon(); err != nil {
				return nil, err
			}
			return s, nil
		case "function":
			return p.funcDecl()
		case "if":
			return p.ifStmt()
		case "while":
			return p.whileStmt()
		case "do":
			return p.doWhileStmt()
		case "for":
			return p.forStmt()
		case "return":
			return p.returnStmt()
		case "break":
			p.next()
			label := p.optionalLabel()
			if err := p.semicolon(); err != nil {
				return nil, err
			}
			return &Break{base{t.Line}, label}, nil
		case "continue":
			p.next()
			label := p.optionalLabel()
			if err := p.semicolon(); err != nil {
				return nil, err
			}
			return &Continue{base{t.Line}, label}, nil
		case "throw":
			p.next()
			v, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.semicolon(); err != nil {
				return nil, err
			}
			return &Throw{base{t.Line}, v}, nil
		case "try":
			return p.tryStmt()
		case "switch":
			return p.switchStmt()
		}
	}
	// Labeled statement: `name: stmt`.
	if t.Type == IDENT && p.toks[p.pos+1].Type == COLON {
		p.next() // label
		p.next() // colon
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &Labeled{base{t.Line}, t.Lit, inner}, nil
	}
	// Expression statement.
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.semicolon(); err != nil {
		return nil, err
	}
	return &ExprStmt{base{t.Line}, x}, nil
}

// optionalLabel consumes an identifier label after break/continue, if
// present on the same line (the restricted production).
func (p *parser) optionalLabel() string {
	t := p.cur()
	if t.Type == IDENT && !t.NewlineBefore {
		p.next()
		return t.Lit
	}
	return ""
}

func (p *parser) block() (*Block, error) {
	t, err := p.expect(LBRACE, "'{'")
	if err != nil {
		return nil, err
	}
	b := &Block{base: base{t.Line}}
	for !p.at(RBRACE) && !p.at(EOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	if _, err := p.expect(RBRACE, "'}'"); err != nil {
		return nil, err
	}
	return b, nil
}

func (p *parser) varDecl() (*VarDecl, error) {
	t := p.next() // var
	d := &VarDecl{base: base{t.Line}}
	for {
		name, err := p.expect(IDENT, "variable name")
		if err != nil {
			return nil, err
		}
		d.Names = append(d.Names, name.Lit)
		*p.varNames = append(*p.varNames, name.Lit)
		var init Node
		if p.eat(ASSIGN) {
			init, err = p.assignment()
			if err != nil {
				return nil, err
			}
		}
		d.Inits = append(d.Inits, init)
		if !p.eat(COMMA) {
			break
		}
	}
	return d, nil
}

func (p *parser) funcDecl() (Node, error) {
	t := p.cur()
	fn, err := p.funcLit(true)
	if err != nil {
		return nil, err
	}
	*p.funcDecls = append(*p.funcDecls, fn)
	return &FuncDecl{base{t.Line}, fn}, nil
}

// funcLit parses `function name?(params) { body }`.
func (p *parser) funcLit(requireName bool) (*FuncLit, error) {
	t := p.next() // function
	fn := &FuncLit{base: base{t.Line}}
	if p.at(IDENT) {
		fn.Name = p.next().Lit
	} else if requireName {
		return nil, &SyntaxError{Msg: "function declaration requires a name", Line: t.Line, Col: t.Col}
	}
	if _, err := p.expect(LPAREN, "'('"); err != nil {
		return nil, err
	}
	for !p.at(RPAREN) {
		name, err := p.expect(IDENT, "parameter name")
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, name.Lit)
		if !p.eat(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN, "')'"); err != nil {
		return nil, err
	}
	// Swap hoist targets while parsing the body.
	savedVars, savedFuncs := p.varNames, p.funcDecls
	p.varNames, p.funcDecls = &fn.VarNames, &fn.FuncDecls
	body, err := p.block()
	p.varNames, p.funcDecls = savedVars, savedFuncs
	if err != nil {
		return nil, err
	}
	fn.Body = body.Stmts
	return fn, nil
}

func (p *parser) ifStmt() (Node, error) {
	t := p.next() // if
	if _, err := p.expect(LPAREN, "'('"); err != nil {
		return nil, err
	}
	test, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN, "')'"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	var els Node
	if p.eatKw("else") {
		els, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return &If{base{t.Line}, test, then, els}, nil
}

func (p *parser) whileStmt() (Node, error) {
	t := p.next() // while
	if _, err := p.expect(LPAREN, "'('"); err != nil {
		return nil, err
	}
	test, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN, "')'"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &For{base: base{t.Line}, Test: test, Body: body}, nil
}

func (p *parser) doWhileStmt() (Node, error) {
	t := p.next() // do
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.eatKw("while") {
		return nil, &SyntaxError{Msg: "expected 'while' after do body", Line: p.line(), Col: p.cur().Col}
	}
	if _, err := p.expect(LPAREN, "'('"); err != nil {
		return nil, err
	}
	test, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN, "')'"); err != nil {
		return nil, err
	}
	if err := p.semicolon(); err != nil {
		return nil, err
	}
	return &DoWhile{base{t.Line}, body, test}, nil
}

func (p *parser) forStmt() (Node, error) {
	t := p.next() // for
	if _, err := p.expect(LPAREN, "'('"); err != nil {
		return nil, err
	}
	// Disambiguate for-in from classic for.
	var init Node
	var err error
	if p.atKw("var") {
		decl, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		if len(decl.Names) == 1 && decl.Inits[0] == nil && p.atKw("in") {
			p.next() // in
			obj, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN, "')'"); err != nil {
				return nil, err
			}
			body, err := p.statement()
			if err != nil {
				return nil, err
			}
			return &ForIn{base: base{t.Line}, Name: decl.Names[0], Obj: obj, Body: body}, nil
		}
		init = decl
	} else if !p.at(SEMI) {
		// An expression never stops before `in` (it is an operator), so
		// the for-in form needs var.
		init, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI, "';' in for"); err != nil {
		return nil, err
	}
	var test Node
	if !p.at(SEMI) {
		test, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI, "';' in for"); err != nil {
		return nil, err
	}
	var post Node
	if !p.at(RPAREN) {
		post, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(RPAREN, "')'"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &For{base{t.Line}, init, test, post, body}, nil
}

func (p *parser) returnStmt() (Node, error) {
	t := p.next() // return
	r := &Return{base: base{t.Line}}
	// Restricted production: a newline after `return` means bare return.
	nt := p.cur()
	if nt.Type != SEMI && nt.Type != RBRACE && nt.Type != EOF && !nt.NewlineBefore {
		v, err := p.expression()
		if err != nil {
			return nil, err
		}
		r.Value = v
	}
	if err := p.semicolon(); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) tryStmt() (Node, error) {
	t := p.next() // try
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	tr := &Try{base: base{t.Line}, Body: body}
	if p.eatKw("catch") {
		if _, err := p.expect(LPAREN, "'('"); err != nil {
			return nil, err
		}
		name, err := p.expect(IDENT, "catch variable")
		if err != nil {
			return nil, err
		}
		tr.CatchName = name.Lit
		if _, err := p.expect(RPAREN, "')'"); err != nil {
			return nil, err
		}
		tr.Catch, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if p.eatKw("finally") {
		tr.Finally, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if tr.Catch == nil && tr.Finally == nil {
		return nil, &SyntaxError{Msg: "try requires catch or finally", Line: t.Line, Col: t.Col}
	}
	return tr, nil
}

func (p *parser) switchStmt() (Node, error) {
	t := p.next() // switch
	if _, err := p.expect(LPAREN, "'('"); err != nil {
		return nil, err
	}
	disc, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN, "')'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE, "'{'"); err != nil {
		return nil, err
	}
	sw := &Switch{base: base{t.Line}, Disc: disc, DefaultIdx: -1}
	for !p.at(RBRACE) && !p.at(EOF) {
		var test Node
		if p.eatKw("case") {
			test, err = p.expression()
			if err != nil {
				return nil, err
			}
		} else if p.eatKw("default") {
			if sw.DefaultIdx >= 0 {
				return nil, &SyntaxError{Msg: "duplicate default clause", Line: p.line(), Col: p.cur().Col}
			}
			sw.DefaultIdx = len(sw.Cases)
		} else {
			return nil, &SyntaxError{Msg: "expected case or default", Line: p.line(), Col: p.cur().Col}
		}
		if _, err := p.expect(COLON, "':'"); err != nil {
			return nil, err
		}
		var stmts []Node
		for !p.at(RBRACE) && !p.at(EOF) && !p.atKw("case") && !p.atKw("default") {
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, s)
		}
		sw.Cases = append(sw.Cases, SwitchCase{Test: test, Stmts: stmts})
	}
	if _, err := p.expect(RBRACE, "'}'"); err != nil {
		return nil, err
	}
	return sw, nil
}

// ---- expressions ----

// expression parses a comma expression.
func (p *parser) expression() (Node, error) {
	t := p.cur()
	x, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if !p.at(COMMA) {
		return x, nil
	}
	seq := &Seq{base: base{t.Line}, Exprs: []Node{x}}
	for p.eat(COMMA) {
		y, err := p.assignment()
		if err != nil {
			return nil, err
		}
		seq.Exprs = append(seq.Exprs, y)
	}
	return seq, nil
}

func (p *parser) assignment() (Node, error) { return p.nested(p.assign) }

func (p *parser) assign() (Node, error) {
	t := p.cur()
	left, err := p.conditional()
	if err != nil {
		return nil, err
	}
	op := p.cur().Type
	switch op {
	case ASSIGN, PLUSASSIGN, MINUSASSIGN, STARASSIGN, SLASHASSIGN, PERCENTASSIGN:
		if !isLValue(left) {
			return nil, &SyntaxError{Msg: "invalid assignment target", Line: t.Line, Col: t.Col}
		}
		p.next()
		right, err := p.assignment()
		if err != nil {
			return nil, err
		}
		return &Assign{base{t.Line}, op, left, right}, nil
	}
	return left, nil
}

func isLValue(n Node) bool {
	switch n.(type) {
	case *Ident, *Member:
		return true
	}
	return false
}

func (p *parser) conditional() (Node, error) {
	t := p.cur()
	test, err := p.logicalOr()
	if err != nil {
		return nil, err
	}
	if !p.eat(QUESTION) {
		return test, nil
	}
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON, "':'"); err != nil {
		return nil, err
	}
	els, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return &Cond{base{t.Line}, test, then, els}, nil
}

func (p *parser) logicalOr() (Node, error) {
	outer := p.openChain()
	x, err := p.logicalAnd()
	if err != nil {
		return nil, err
	}
	for p.at(OR) {
		t := p.next()
		if err := p.link(); err != nil {
			return nil, err
		}
		y, err := p.nested(p.logicalAnd)
		if err != nil {
			return nil, err
		}
		x = &Logical{base{t.Line}, OR, x, y}
	}
	p.closeChain(outer)
	return x, nil
}

func (p *parser) logicalAnd() (Node, error) {
	outer := p.openChain()
	x, err := p.bitOr()
	if err != nil {
		return nil, err
	}
	for p.at(AND) {
		t := p.next()
		if err := p.link(); err != nil {
			return nil, err
		}
		y, err := p.nested(p.bitOr)
		if err != nil {
			return nil, err
		}
		x = &Logical{base{t.Line}, AND, x, y}
	}
	p.closeChain(outer)
	return x, nil
}

func (p *parser) bitOr() (Node, error)  { return p.binaryLevel([]TokenType{BITOR}, p.bitXor) }
func (p *parser) bitXor() (Node, error) { return p.binaryLevel([]TokenType{BITXOR}, p.bitAnd) }
func (p *parser) bitAnd() (Node, error) { return p.binaryLevel([]TokenType{BITAND}, p.equality) }

func (p *parser) equality() (Node, error) {
	return p.binaryLevel([]TokenType{EQ, NEQ, SEQ, SNEQ}, p.relational)
}

func (p *parser) relational() (Node, error) {
	outer := p.openChain()
	x, err := p.shift()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		lit := ""
		switch {
		case t.Type == LT || t.Type == GT || t.Type == LE || t.Type == GE:
		case t.Type == KEYWORD && (t.Lit == "in" || t.Lit == "instanceof"):
			lit = t.Lit
		default:
			p.closeChain(outer)
			return x, nil
		}
		p.next()
		if err := p.link(); err != nil {
			return nil, err
		}
		y, err := p.nested(p.shift)
		if err != nil {
			return nil, err
		}
		x = &Binary{base{t.Line}, t.Type, lit, x, y}
	}
}

func (p *parser) shift() (Node, error) {
	return p.binaryLevel([]TokenType{SHL, SHR, USHR}, p.additive)
}

func (p *parser) additive() (Node, error) {
	return p.binaryLevel([]TokenType{PLUS, MINUS}, p.multiplicative)
}

func (p *parser) multiplicative() (Node, error) {
	return p.binaryLevel([]TokenType{STAR, SLASH, PERCENT}, p.unary)
}

func (p *parser) binaryLevel(ops []TokenType, next func() (Node, error)) (Node, error) {
	outer := p.openChain()
	x, err := next()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		match := false
		for _, op := range ops {
			if t.Type == op {
				match = true
				break
			}
		}
		if !match {
			p.closeChain(outer)
			return x, nil
		}
		p.next()
		if err := p.link(); err != nil {
			return nil, err
		}
		y, err := p.nested(next)
		if err != nil {
			return nil, err
		}
		x = &Binary{base{t.Line}, t.Type, "", x, y}
	}
}

func (p *parser) unary() (Node, error) {
	t := p.cur()
	switch t.Type {
	case NOT, MINUS, PLUS, BITNOT:
		p.next()
		x, err := p.nested(p.unary)
		if err != nil {
			return nil, err
		}
		return &Unary{base{t.Line}, t.Type, "", x}, nil
	case INC, DEC:
		p.next()
		x, err := p.nested(p.unary)
		if err != nil {
			return nil, err
		}
		if !isLValue(x) {
			return nil, &SyntaxError{Msg: "invalid increment target", Line: t.Line, Col: t.Col}
		}
		return &Unary{base{t.Line}, t.Type, "", x}, nil
	case KEYWORD:
		switch t.Lit {
		case "typeof", "void", "delete":
			p.next()
			x, err := p.nested(p.unary)
			if err != nil {
				return nil, err
			}
			return &Unary{base{t.Line}, KEYWORD, t.Lit, x}, nil
		}
	}
	return p.postfix()
}

func (p *parser) postfix() (Node, error) {
	x, err := p.callMember()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if (t.Type == INC || t.Type == DEC) && !t.NewlineBefore {
		if !isLValue(x) {
			return nil, &SyntaxError{Msg: "invalid increment target", Line: t.Line, Col: t.Col}
		}
		p.next()
		return &Postfix{base{t.Line}, t.Type, x}, nil
	}
	return x, nil
}

// callMember parses new/call/member chains.
func (p *parser) callMember() (Node, error) {
	outer := p.openChain()
	var x Node
	var err error
	if p.atKw("new") {
		t := p.next()
		callee, err := p.nested(p.callMemberNoCall)
		if err != nil {
			return nil, err
		}
		var args []Node
		if p.at(LPAREN) {
			args, err = p.arguments()
			if err != nil {
				return nil, err
			}
		}
		x = &NewExpr{base{t.Line}, callee, args}
	} else {
		x, err = p.primary()
		if err != nil {
			return nil, err
		}
	}
	if x, err = p.memberSuffix(x, true); err != nil {
		return nil, err
	}
	p.closeChain(outer)
	return x, nil
}

// callMemberNoCall parses the callee of `new`: member accesses bind
// tighter than the new's argument list, calls do not.
func (p *parser) callMemberNoCall() (Node, error) {
	var x Node
	var err error
	if p.atKw("new") {
		return p.callMember()
	}
	outer := p.openChain()
	x, err = p.primary()
	if err != nil {
		return nil, err
	}
	if x, err = p.memberSuffix(x, false); err != nil {
		return nil, err
	}
	p.closeChain(outer)
	return x, nil
}

// memberSuffix parses the links of a member/call chain whose chain is
// open (openChain) since before x.
func (p *parser) memberSuffix(x Node, allowCall bool) (Node, error) {
	for {
		t := p.cur()
		if t.Type != DOT && t.Type != LBRACKET && (t.Type != LPAREN || !allowCall) {
			return x, nil
		}
		if err := p.link(); err != nil {
			return nil, err
		}
		switch t.Type {
		case DOT:
			p.next()
			name := p.cur()
			if name.Type != IDENT && name.Type != KEYWORD {
				return nil, &SyntaxError{Msg: "expected property name after '.'", Line: name.Line, Col: name.Col}
			}
			p.next()
			x = &Member{base{t.Line}, x, name.Lit, nil}
		case LBRACKET:
			p.next()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACKET, "']'"); err != nil {
				return nil, err
			}
			x = &Member{base{t.Line}, x, "", idx}
		case LPAREN:
			args, err := p.arguments()
			if err != nil {
				return nil, err
			}
			x = &Call{base{t.Line}, x, args}
		}
	}
}

func (p *parser) arguments() ([]Node, error) {
	if _, err := p.expect(LPAREN, "'('"); err != nil {
		return nil, err
	}
	var args []Node
	for !p.at(RPAREN) {
		a, err := p.assignment()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.eat(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN, "')'"); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) primary() (Node, error) {
	t := p.cur()
	switch t.Type {
	case NUMBER:
		p.next()
		return &NumberLit{base{t.Line}, t.Num}, nil
	case STRING:
		p.next()
		return &StringLit{base{t.Line}, t.Lit}, nil
	case IDENT:
		p.next()
		return &Ident{base: base{t.Line}, Name: t.Lit}, nil
	case LPAREN:
		p.next()
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN, "')'"); err != nil {
			return nil, err
		}
		return x, nil
	case LBRACKET:
		return p.arrayLit()
	case LBRACE:
		return p.objectLit()
	case KEYWORD:
		switch t.Lit {
		case "true", "false":
			p.next()
			return &BoolLit{base{t.Line}, t.Lit == "true"}, nil
		case "null":
			p.next()
			return &NullLit{base{t.Line}}, nil
		case "this":
			p.next()
			return &ThisLit{base: base{t.Line}}, nil
		case "function":
			return p.funcLit(false)
		}
	}
	return nil, &SyntaxError{Msg: fmt.Sprintf("unexpected token %q", t.String()), Line: t.Line, Col: t.Col}
}

func (p *parser) arrayLit() (Node, error) {
	t := p.next() // [
	a := &ArrayLit{base: base{t.Line}}
	for !p.at(RBRACKET) {
		e, err := p.assignment()
		if err != nil {
			return nil, err
		}
		a.Elems = append(a.Elems, e)
		if !p.eat(COMMA) {
			break
		}
	}
	if _, err := p.expect(RBRACKET, "']'"); err != nil {
		return nil, err
	}
	return a, nil
}

func (p *parser) objectLit() (Node, error) {
	t := p.next() // {
	o := &ObjectLit{base: base{t.Line}}
	for !p.at(RBRACE) {
		kt := p.cur()
		var key string
		switch kt.Type {
		case IDENT, KEYWORD:
			key = kt.Lit
			p.next()
		case STRING:
			key = kt.Lit
			p.next()
		case NUMBER:
			key = numToString(kt.Num)
			p.next()
		default:
			return nil, &SyntaxError{Msg: "expected property key", Line: kt.Line, Col: kt.Col}
		}
		if _, err := p.expect(COLON, "':'"); err != nil {
			return nil, err
		}
		v, err := p.assignment()
		if err != nil {
			return nil, err
		}
		o.Keys = append(o.Keys, key)
		o.Values = append(o.Values, v)
		if !p.eat(COMMA) {
			break
		}
	}
	if _, err := p.expect(RBRACE, "'}'"); err != nil {
		return nil, err
	}
	return o, nil
}
