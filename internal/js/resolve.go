package js

// The resolver runs once per parse and binds every name to the place it
// lives, so that the evaluator never looks a local up by name (DESIGN.md
// §5a, "Resolved names").
//
// The scopes are function activations and catch clauses; ES3 has no block
// scope. A function's locals are its parameters, the names it declares
// with var or function, this, its own name, and — bound only if the body
// names it — arguments; a catch clause has one local, the caught value.
// A name no enclosing scope declares is a global and is looked up by name
// at run time: the interpreter has no eval and no with, so nothing can
// introduce a local binding after parsing. A resolved local is a ref: the
// scope depth hops out, and the slot in it.

// ref locates a binding: slot of the scope depth hops out, or, when slot
// is negative, the global of the node's name.
type ref struct{ depth, slot int }

type scope struct {
	parent *scope
	fn     *FuncLit // nil for a catch clause
	names  map[string]int
	n      int  // slots
	closes bool // a function literal lies within
}

func (s *scope) declare(name string) int {
	if i, ok := s.names[name]; ok {
		return i
	}
	s.names[name] = s.n
	s.n++
	return s.n - 1
}

// lookup resolves name from s outward. "this" names the receiver (no
// identifier can), and a function binds arguments on first use.
func (s *scope) lookup(name string) ref {
	for d := 0; s != nil; s, d = s.parent, d+1 {
		if s.fn != nil && name == "arguments" {
			s.fn.argsSlot = s.declare(name)
		}
		if i, ok := s.names[name]; ok {
			return ref{d, i}
		}
	}
	return ref{slot: -1}
}

// resolveProgram resolves a script as global code.
func resolveProgram(prog *Program) {
	for _, d := range prog.FuncDecls {
		resolveFunc(d, nil)
	}
	var global *scope
	global.walkAll(prog.Stmts)
}

// resolveFunc resolves fn, whose closures capture parent.
func resolveFunc(fn *FuncLit, parent *scope) {
	for p := parent; p != nil; p = p.parent {
		p.closes = true
	}
	s := &scope{parent: parent, fn: fn, names: make(map[string]int)}
	// The parameters take the first slots, in order, so a call binds its
	// arguments by position; a repeated name means the later parameter.
	for i, p := range fn.Params {
		s.names[p] = i
	}
	s.n = len(fn.Params)
	fn.argsSlot, fn.selfSlot = -1, -1
	fn.thisSlot = s.declare("this")
	for _, name := range fn.VarNames {
		s.declare(name)
	}
	fn.declSlots = make([]int, len(fn.FuncDecls))
	for i, d := range fn.FuncDecls {
		fn.declSlots[i] = s.declare(d.Name)
	}
	// The function's own name is bound unless a parameter (or arguments)
	// takes it; a var of that name starts out as the function.
	if i, ok := s.names[fn.Name]; fn.Name != "" && fn.Name != "arguments" && (!ok || i >= len(fn.Params)) {
		fn.selfSlot = s.declare(fn.Name)
	}
	// Function declarations are hoisted: they close over the function's
	// scope even when they sit in one of its catch blocks.
	for _, d := range fn.FuncDecls {
		resolveFunc(d, s)
	}
	s.walkAll(fn.Body)
	fn.nslots, fn.closes = s.n, s.closes
}

func (s *scope) walkAll(ns []Node) {
	for _, n := range ns {
		s.walk(n)
	}
}

// walk resolves the names in a statement or expression (nil is none).
func (s *scope) walk(n Node) {
	switch n := n.(type) {
	case *Ident:
		n.ref = s.lookup(n.Name)
	case *ThisLit:
		n.ref = s.lookup("this")
	case *FuncLit:
		resolveFunc(n, s)
	case *VarDecl:
		n.refs = make([]ref, len(n.Names))
		for i, init := range n.Inits {
			if init != nil {
				s.walk(init)
				n.refs[i] = s.lookup(n.Names[i])
			}
		}
	case *ForIn:
		s.walk(n.Obj)
		n.ref = s.lookup(n.Name)
		s.walk(n.Body)
	case *Try:
		s.walk(n.Body)
		if n.Catch != nil {
			c := &scope{parent: s, names: map[string]int{n.CatchName: 0}, n: 1}
			c.walk(n.Catch)
			n.catchCloses = c.closes
		}
		if n.Finally != nil {
			s.walk(n.Finally)
		}
	case *Switch:
		s.walk(n.Disc)
		for _, c := range n.Cases {
			s.walk(c.Test)
			s.walkAll(c.Stmts)
		}
	case *Call:
		s.walk(n.Fn)
		s.walkAll(n.Args)
	case *NewExpr:
		s.walk(n.Fn)
		s.walkAll(n.Args)
	case *ArrayLit:
		s.walkAll(n.Elems)
	case *ObjectLit:
		s.walkAll(n.Values)
	case *Seq:
		s.walkAll(n.Exprs)
	case *Block:
		s.walkAll(n.Stmts)
	case *Cond:
		s.walkAll([]Node{n.Test, n.Then, n.Else})
	case *Logical:
		s.walkAll([]Node{n.L, n.R})
	case *Binary:
		s.walkAll([]Node{n.L, n.R})
	case *Assign:
		s.walkAll([]Node{n.Target, n.Value})
	case *Member:
		s.walkAll([]Node{n.X, n.Index})
	case *If:
		s.walkAll([]Node{n.Test, n.Then, n.Else})
	case *DoWhile:
		s.walkAll([]Node{n.Body, n.Test})
	case *For:
		s.walkAll([]Node{n.Init, n.Test, n.Post, n.Body})
	case *Unary:
		s.walk(n.X)
	case *Postfix:
		s.walk(n.X)
	case *ExprStmt:
		s.walk(n.X)
	case *Return:
		s.walk(n.Value)
	case *Labeled:
		s.walk(n.Stmt)
	case *Throw:
		s.walk(n.Value)
	}
	// Literals, break, continue and the empty statement name nothing;
	// function declarations were resolved with their enclosing function.
}
