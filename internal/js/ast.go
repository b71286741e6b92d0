package js

// The AST node types. Every node records the source line it starts on so
// runtime errors can point at code.

// Node is implemented by all AST nodes.
type Node interface {
	Pos() int // source line
}

type base struct{ Line int }

func (b base) Pos() int { return b.Line }

// ---- Expressions ----

// Ident is a variable reference.
type Ident struct {
	base
	Name string
	ref  ref
}

// NumberLit is a numeric literal.
type NumberLit struct {
	base
	Value float64
}

// StringLit is a string literal.
type StringLit struct {
	base
	Value string
}

// BoolLit is true or false.
type BoolLit struct {
	base
	Value bool
}

// NullLit is the null literal.
type NullLit struct{ base }

// ThisLit is the `this` expression.
type ThisLit struct {
	base
	ref ref
}

// ArrayLit is [a, b, ...].
type ArrayLit struct {
	base
	Elems []Node
}

// ObjectLit is {k: v, ...}.
type ObjectLit struct {
	base
	Keys   []string
	Values []Node
}

// FuncLit is a function expression or declaration body.
type FuncLit struct {
	base
	Name   string // "" for anonymous
	Params []string
	Body   []Node
	// VarNames are the var-declared names hoisted to function scope,
	// collected at parse time.
	VarNames []string
	// FuncDecls are nested function declarations, hoisted.
	FuncDecls []*FuncLit

	// Set by the resolver (resolve.go). A call's scope has nslots slots,
	// the parameters first; argsSlot is -1 when the body never names
	// arguments, selfSlot when the function has no name of its own to
	// bind. closes reports that the body contains a function literal, so
	// its scopes can outlive the call.
	nslots                       int
	argsSlot, thisSlot, selfSlot int
	declSlots                    []int // slot of each FuncDecls entry
	closes                       bool
}

// Unary is a prefix operator application. Op is the token type
// (NOT, MINUS, PLUS, BITNOT, INC, DEC) or one of the keyword operators
// recorded in KwOp ("typeof", "void", "delete").
type Unary struct {
	base
	Op   TokenType
	KwOp string
	X    Node
}

// Postfix is x++ or x--.
type Postfix struct {
	base
	Op TokenType
	X  Node
}

// Binary is a binary operator application. For `in` and `instanceof`,
// Op is KEYWORD and KwOp names the operator.
type Binary struct {
	base
	Op   TokenType
	KwOp string
	L, R Node
}

// Logical is && or || (short-circuiting).
type Logical struct {
	base
	Op   TokenType
	L, R Node
}

// Cond is the ternary ?: expression.
type Cond struct {
	base
	Test, Then, Else Node
}

// Assign is an assignment. Op is ASSIGN or a compound assignment token.
type Assign struct {
	base
	Op     TokenType
	Target Node // Ident or Member
	Value  Node
}

// Member is x.Name or x[Index] (exactly one of Name/Index is set).
type Member struct {
	base
	X     Node
	Name  string
	Index Node
}

// Call is a function call.
type Call struct {
	base
	Fn   Node
	Args []Node
}

// New is a constructor call.
type NewExpr struct {
	base
	Fn   Node
	Args []Node
}

// Seq is the comma operator: evaluate all, yield last.
type Seq struct {
	base
	Exprs []Node
}

// ---- Statements ----

// VarDecl declares one or more variables.
type VarDecl struct {
	base
	Names []string
	Inits []Node // nil entries for bare declarations
	refs  []ref
}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	base
	X Node
}

// Block is { ... }.
type Block struct {
	base
	Stmts []Node
}

// If is if/else.
type If struct {
	base
	Test       Node
	Then, Else Node // Else may be nil
}

// DoWhile is a do/while loop.
type DoWhile struct {
	base
	Body Node
	Test Node
}

// For is the classic three-clause for loop, and a while loop with only
// Test. Any clause may be nil. Init is either a VarDecl or an expression
// node.
type For struct {
	base
	Init, Test, Post Node
	Body             Node
}

// ForIn is for (var k in obj).
type ForIn struct {
	base
	Name string
	Obj  Node
	Body Node
	ref  ref
}

// Return returns from the enclosing function.
type Return struct {
	base
	Value Node // nil for bare return
}

// Break exits the nearest loop or switch (or the named enclosing
// statement when Label is set).
type Break struct {
	base
	Label string
}

// Continue continues the nearest loop (or the named enclosing loop when
// Label is set).
type Continue struct {
	base
	Label string
}

// Labeled wraps a statement with a label: `name: stmt`.
type Labeled struct {
	base
	Name string
	Stmt Node
}

// Throw raises a value.
type Throw struct {
	base
	Value Node
}

// Try is try/catch/finally. Catch and Finally may be nil (not both).
type Try struct {
	base
	Body      *Block
	CatchName string
	Catch     *Block
	Finally   *Block
	// catchCloses reports that the catch block contains a function
	// literal, which may capture its one-slot scope (resolve.go).
	catchCloses bool
}

// Switch is a switch statement. A DefaultIdx of -1 means no default.
type Switch struct {
	base
	Disc       Node
	Cases      []SwitchCase
	DefaultIdx int
}

// SwitchCase is one case clause. Test is nil for the default clause.
type SwitchCase struct {
	Test  Node
	Stmts []Node
}

// FuncDecl wraps a function declaration statement.
type FuncDecl struct {
	base
	Fn *FuncLit
}

// Empty is the empty statement `;`.
type Empty struct{ base }

// Program is a parsed script.
type Program struct {
	Stmts []Node
	// Hoisted names for the top-level scope.
	VarNames  []string
	FuncDecls []*FuncLit
	// fn is the body as a function, for a program from ParseFunction.
	fn *FuncLit
}
