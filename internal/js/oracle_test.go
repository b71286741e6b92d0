package js

import (
	"fmt"
	"slices"
)

// The reference evaluator: the interpreter as it was before name
// resolution, a map from name to value per scope and every lookup a walk
// up the chain by name. FuzzInterp holds the resolved evaluator to it.
// It shares an Interp's globals, budgets, builtins and value operations
// (binary, getMember, putMember, ...), so the two differ exactly in how
// they find, bind and capture names. Its functions are natives that run
// the reference evaluator, so a call to one passes through the
// interpreter's callFunction (depth bound, frames) as a resolved call does.

type refEnv struct {
	vars   map[string]Value
	parent *refEnv
}

func newRefEnv(parent *refEnv) *refEnv {
	return &refEnv{vars: make(map[string]Value), parent: parent}
}

func (e *refEnv) Lookup(name string) (Value, bool) {
	for env := e; env != nil; env = env.parent {
		if v, ok := env.vars[name]; ok {
			return v, true
		}
	}
	return Undefined, false
}

func (e *refEnv) Assign(name string, v Value) bool {
	for env := e; env != nil; env = env.parent {
		if _, ok := env.vars[name]; ok {
			env.vars[name] = v
			return true
		}
	}
	return false
}

func (e *refEnv) Define(name string, v Value) { e.vars[name] = v }

type refInterp struct {
	it     *Interp
	global *refEnv
}

func newRefInterp(it *Interp) *refInterp {
	return &refInterp{it: it, global: &refEnv{vars: it.globals}}
}

type refBreak struct{ label string }
type refContinue struct{ label string }
type refReturn struct{ v Value }

func (refBreak) Error() string    { return "break outside loop" }
func (refContinue) Error() string { return "continue outside loop" }
func (refReturn) Error() string   { return "return outside function" }

func (o *refInterp) run(prog *Program) (Value, error) {
	o.hoist(o.global, prog.VarNames, prog.FuncDecls)
	var last Value
	for _, s := range prog.Stmts {
		v, err := o.execStmt(o.global, s)
		if err != nil {
			switch err.(type) {
			case refBreak, refContinue, refReturn:
				return Undefined, &RuntimeError{Msg: err.Error(), Line: s.Pos()}
			}
			return Undefined, err
		}
		last = v
	}
	return last, nil
}

// compile is CompileFunction: a handler has no name of its own to bind.
func (o *refInterp) compile(name string, prog *Program) Value {
	fn := &FuncLit{Body: prog.Stmts, VarNames: prog.VarNames, FuncDecls: prog.FuncDecls}
	f := o.makeFunction(fn, o.global)
	f.Name = name
	return ObjVal(f)
}

func (o *refInterp) hoist(env *refEnv, vars []string, funcs []*FuncLit) {
	for _, name := range vars {
		if _, ok := env.vars[name]; !ok {
			env.Define(name, Undefined)
		}
	}
	for _, fn := range funcs {
		env.Define(fn.Name, ObjVal(o.makeFunction(fn, env)))
	}
}

func (o *refInterp) makeFunction(fn *FuncLit, env *refEnv) *Object {
	f := &Object{Class: "Function", Fn: fn, Name: fn.Name}
	f.Native = func(it *Interp, this Value, args []Value) (Value, error) {
		return o.callUser(f, env, this, args)
	}
	return f
}

func (o *refInterp) callUser(fnObj *Object, closure *refEnv, this Value, args []Value) (Value, error) {
	fn := fnObj.Fn
	env := newRefEnv(closure)
	for i, p := range fn.Params {
		if i < len(args) {
			env.Define(p, args[i])
		} else {
			env.Define(p, Undefined)
		}
	}
	env.Define("arguments", ObjVal(NewArray(slices.Clone(args)...)))
	env.Define("this", this)
	// Named function expressions can refer to themselves.
	if fn.Name != "" {
		if _, ok := env.vars[fn.Name]; !ok {
			env.Define(fn.Name, ObjVal(fnObj))
		}
	}
	o.hoist(env, fn.VarNames, fn.FuncDecls)
	for _, s := range fn.Body {
		if _, err := o.execStmt(env, s); err != nil {
			if r, ok := err.(refReturn); ok {
				return r.v, nil
			}
			return Undefined, err
		}
	}
	return Undefined, nil
}

func (o *refInterp) execStmt(env *refEnv, n Node) (Value, error) {
	it := o.it
	if err := it.step(n.Pos()); err != nil {
		return Undefined, err
	}
	switch s := n.(type) {
	case *Empty, *FuncDecl:
		return Undefined, nil
	case *VarDecl:
		for i, name := range s.Names {
			if s.Inits[i] == nil {
				continue
			}
			v, err := o.evalExpr(env, s.Inits[i])
			if err != nil {
				return Undefined, err
			}
			if !env.Assign(name, v) {
				env.Define(name, v)
			}
		}
		return Undefined, nil
	case *ExprStmt:
		return o.evalExpr(env, s.X)
	case *Block:
		var last Value
		for _, st := range s.Stmts {
			v, err := o.execStmt(env, st)
			if err != nil {
				return Undefined, err
			}
			last = v
		}
		return last, nil
	case *If:
		test, err := o.evalExpr(env, s.Test)
		if err != nil {
			return Undefined, err
		}
		if test.ToBool() {
			return o.execStmt(env, s.Then)
		}
		if s.Else != nil {
			return o.execStmt(env, s.Else)
		}
		return Undefined, nil
	case *DoWhile:
		label := it.takeLabel()
		for {
			if err := o.execLoopBody(env, s.Body, label); err != nil {
				if refLoopBreaks(err, label) {
					return Undefined, nil
				}
				return Undefined, err
			}
			test, err := o.evalExpr(env, s.Test)
			if err != nil {
				return Undefined, err
			}
			if !test.ToBool() {
				return Undefined, nil
			}
		}
	case *For:
		label := it.takeLabel()
		if s.Init != nil {
			var err error
			if vd, ok := s.Init.(*VarDecl); ok {
				_, err = o.execStmt(env, vd)
			} else {
				_, err = o.evalExpr(env, s.Init)
			}
			if err != nil {
				return Undefined, err
			}
		}
		for {
			if s.Test != nil {
				test, err := o.evalExpr(env, s.Test)
				if err != nil {
					return Undefined, err
				}
				if !test.ToBool() {
					return Undefined, nil
				}
			}
			if err := o.execLoopBody(env, s.Body, label); err != nil {
				if refLoopBreaks(err, label) {
					return Undefined, nil
				}
				return Undefined, err
			}
			if s.Post != nil {
				if _, err := o.evalExpr(env, s.Post); err != nil {
					return Undefined, err
				}
			}
		}
	case *ForIn:
		label := it.takeLabel()
		obj, err := o.evalExpr(env, s.Obj)
		if err != nil {
			return Undefined, err
		}
		for _, k := range forInKeys(obj) {
			if !env.Assign(s.Name, Str(k)) {
				env.Define(s.Name, Str(k))
			}
			if err := o.execLoopBody(env, s.Body, label); err != nil {
				if refLoopBreaks(err, label) {
					return Undefined, nil
				}
				return Undefined, err
			}
		}
		return Undefined, nil
	case *Return:
		var v Value
		if s.Value != nil {
			var err error
			v, err = o.evalExpr(env, s.Value)
			if err != nil {
				return Undefined, err
			}
		}
		return Undefined, refReturn{v}
	case *Break:
		return Undefined, refBreak{label: s.Label}
	case *Continue:
		return Undefined, refContinue{label: s.Label}
	case *Labeled:
		switch s.Stmt.(type) {
		case *DoWhile, *For, *ForIn:
			it.pendingLabel = s.Name
		}
		v, err := o.execStmt(env, s.Stmt)
		if b, ok := err.(refBreak); ok && b.label == s.Name {
			return Undefined, nil
		}
		return v, err
	case *Throw:
		v, err := o.evalExpr(env, s.Value)
		if err != nil {
			return Undefined, err
		}
		return Undefined, &Thrown{Value: v}
	case *Try:
		_, bodyErr := o.execStmt(env, s.Body)
		if bodyErr != nil && s.Catch != nil && isCatchable(bodyErr) {
			catchEnv := newRefEnv(env)
			catchEnv.Define(s.CatchName, errToValue(bodyErr))
			_, bodyErr = o.execStmt(catchEnv, s.Catch)
		}
		if s.Finally != nil {
			if _, finErr := o.execStmt(env, s.Finally); finErr != nil {
				return Undefined, finErr
			}
		}
		if bodyErr != nil {
			return Undefined, bodyErr
		}
		return Undefined, nil
	case *Switch:
		return o.execSwitch(env, s)
	}
	return Undefined, &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", n), Line: n.Pos()}
}

func (o *refInterp) execLoopBody(env *refEnv, body Node, label string) error {
	_, err := o.execStmt(env, body)
	if c, ok := err.(refContinue); ok && (c.label == "" || c.label == label) {
		return nil
	}
	return err
}

func refLoopBreaks(err error, label string) bool {
	b, ok := err.(refBreak)
	return ok && (b.label == "" || (label != "" && b.label == label))
}

func (o *refInterp) execSwitch(env *refEnv, s *Switch) (Value, error) {
	disc, err := o.evalExpr(env, s.Disc)
	if err != nil {
		return Undefined, err
	}
	start := -1
	for i, c := range s.Cases {
		if c.Test == nil {
			continue
		}
		tv, err := o.evalExpr(env, c.Test)
		if err != nil {
			return Undefined, err
		}
		if StrictEquals(disc, tv) {
			start = i
			break
		}
	}
	if start < 0 {
		start = s.DefaultIdx
	}
	if start < 0 {
		return Undefined, nil
	}
	for i := start; i < len(s.Cases); i++ {
		for _, st := range s.Cases[i].Stmts {
			if _, err := o.execStmt(env, st); err != nil {
				if b, ok := err.(refBreak); ok && b.label == "" {
					return Undefined, nil
				}
				return Undefined, err
			}
		}
	}
	return Undefined, nil
}

func (o *refInterp) evalExpr(env *refEnv, n Node) (Value, error) {
	it := o.it
	if err := it.step(n.Pos()); err != nil {
		return Undefined, err
	}
	switch e := n.(type) {
	case *NumberLit:
		return Num(e.Value), nil
	case *StringLit:
		return Str(e.Value), nil
	case *BoolLit:
		return Bool(e.Value), nil
	case *NullLit:
		return Null(), nil
	case *ThisLit:
		if v, ok := env.Lookup("this"); ok {
			return v, nil
		}
		return it.GlobalThis, nil
	case *Ident:
		if v, ok := env.Lookup(e.Name); ok {
			return v, nil
		}
		return Undefined, &RuntimeError{Msg: e.Name + " is not defined", Line: e.Line}
	case *ArrayLit:
		arr := make([]Value, len(e.Elems))
		for i, el := range e.Elems {
			v, err := o.evalExpr(env, el)
			if err != nil {
				return Undefined, err
			}
			arr[i] = v
		}
		return ObjVal(NewArray(arr...)), nil
	case *ObjectLit:
		obj := NewObject()
		for i, k := range e.Keys {
			v, err := o.evalExpr(env, e.Values[i])
			if err != nil {
				return Undefined, err
			}
			obj.SetProp(k, v)
		}
		return ObjVal(obj), nil
	case *FuncLit:
		return ObjVal(o.makeFunction(e, env)), nil
	case *Seq:
		var last Value
		for _, x := range e.Exprs {
			v, err := o.evalExpr(env, x)
			if err != nil {
				return Undefined, err
			}
			last = v
		}
		return last, nil
	case *Cond:
		test, err := o.evalExpr(env, e.Test)
		if err != nil {
			return Undefined, err
		}
		if test.ToBool() {
			return o.evalExpr(env, e.Then)
		}
		return o.evalExpr(env, e.Else)
	case *Logical:
		l, err := o.evalExpr(env, e.L)
		if err != nil {
			return Undefined, err
		}
		if (e.Op == AND) != l.ToBool() {
			return l, nil
		}
		return o.evalExpr(env, e.R)
	case *Binary:
		l, err := o.evalExpr(env, e.L)
		if err != nil {
			return Undefined, err
		}
		r, err := o.evalExpr(env, e.R)
		if err != nil {
			return Undefined, err
		}
		return it.binary(e, l, r)
	case *Unary:
		return o.evalUnary(env, e)
	case *Postfix:
		old, err := o.evalExpr(env, e.X)
		if err != nil {
			return Undefined, err
		}
		n := old.ToNumber()
		delta := 1.0
		if e.Op == DEC {
			delta = -1
		}
		if err := o.assignTo(env, e.X, Num(n+delta), e.Line); err != nil {
			return Undefined, err
		}
		return Num(n), nil
	case *Assign:
		var v Value
		var err error
		if e.Op == ASSIGN {
			if v, err = o.evalExpr(env, e.Value); err != nil {
				return Undefined, err
			}
		} else {
			old, err := o.evalExpr(env, e.Target)
			if err != nil {
				return Undefined, err
			}
			rhs, err := o.evalExpr(env, e.Value)
			if err != nil {
				return Undefined, err
			}
			if v, err = it.compound(e.Op, old, rhs); err != nil {
				return Undefined, err
			}
		}
		if err := o.assignTo(env, e.Target, v, e.Line); err != nil {
			return Undefined, err
		}
		return v, nil
	case *Member:
		obj, err := o.evalExpr(env, e.X)
		if err != nil {
			return Undefined, err
		}
		name, err := o.memberName(env, e)
		if err != nil {
			return Undefined, err
		}
		return it.getMember(obj, name, e.Line)
	case *Call:
		return o.evalCall(env, e)
	case *NewExpr:
		fnVal, err := o.evalExpr(env, e.Fn)
		if err != nil {
			return Undefined, err
		}
		fnObj := fnVal.Object()
		if !fnObj.IsCallable() {
			return Undefined, &RuntimeError{Msg: "new requires a function", Line: e.Line}
		}
		args, err := o.evalArgs(env, e.Args)
		if err != nil {
			return Undefined, err
		}
		obj := newInstance(fnObj)
		result, err := it.callFunction(fnObj, ObjVal(obj), args, e.Line)
		if err != nil {
			return Undefined, err
		}
		if result.Kind() == KindObject {
			return result, nil
		}
		return ObjVal(obj), nil
	}
	return Undefined, &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", n), Line: n.Pos()}
}

func (o *refInterp) memberName(env *refEnv, m *Member) (string, error) {
	if m.Index == nil {
		return m.Name, nil
	}
	idx, err := o.evalExpr(env, m.Index)
	if err != nil {
		return "", err
	}
	return idx.ToString(), nil
}

func (o *refInterp) assignTo(env *refEnv, target Node, v Value, line int) error {
	switch t := target.(type) {
	case *Ident:
		if !env.Assign(t.Name, v) {
			o.global.Define(t.Name, v)
		}
		return nil
	case *Member:
		objV, err := o.evalExpr(env, t.X)
		if err != nil {
			return err
		}
		name, err := o.memberName(env, t)
		if err != nil {
			return err
		}
		return o.it.putMember(objV, name, v, line)
	}
	return &RuntimeError{Msg: "invalid assignment target", Line: line}
}

func (o *refInterp) evalUnary(env *refEnv, e *Unary) (Value, error) {
	if e.Op == KEYWORD {
		switch e.KwOp {
		case "typeof":
			if id, ok := e.X.(*Ident); ok {
				if v, found := env.Lookup(id.Name); found {
					return Str(v.TypeOf()), nil
				}
				return Str("undefined"), nil
			}
			v, err := o.evalExpr(env, e.X)
			if err != nil {
				return Undefined, err
			}
			return Str(v.TypeOf()), nil
		case "void":
			if _, err := o.evalExpr(env, e.X); err != nil {
				return Undefined, err
			}
			return Undefined, nil
		case "delete":
			m, ok := e.X.(*Member)
			if !ok {
				return Bool(false), nil
			}
			objV, err := o.evalExpr(env, m.X)
			if err != nil {
				return Undefined, err
			}
			name, err := o.memberName(env, m)
			if err != nil {
				return Undefined, err
			}
			if o := objV.Object(); o != nil {
				o.DeleteProp(name)
				return Bool(true), nil
			}
			return Bool(false), nil
		}
	}
	if e.Op == INC || e.Op == DEC {
		old, err := o.evalExpr(env, e.X)
		if err != nil {
			return Undefined, err
		}
		delta := 1.0
		if e.Op == DEC {
			delta = -1
		}
		nv := Num(old.ToNumber() + delta)
		if err := o.assignTo(env, e.X, nv, e.Line); err != nil {
			return Undefined, err
		}
		return nv, nil
	}
	v, err := o.evalExpr(env, e.X)
	if err != nil {
		return Undefined, err
	}
	return unary(e, v)
}

func (o *refInterp) evalArgs(env *refEnv, nodes []Node) ([]Value, error) {
	args := make([]Value, len(nodes))
	for i, a := range nodes {
		v, err := o.evalExpr(env, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

func (o *refInterp) evalCall(env *refEnv, e *Call) (Value, error) {
	it := o.it
	var this Value = it.GlobalThis
	var fnVal Value
	var err error
	if m, ok := e.Fn.(*Member); ok {
		if this, err = o.evalExpr(env, m.X); err != nil {
			return Undefined, err
		}
		name, err := o.memberName(env, m)
		if err != nil {
			return Undefined, err
		}
		if fnVal, err = it.getMember(this, name, e.Line); err != nil {
			return Undefined, err
		}
		if !fnVal.Object().IsCallable() {
			return Undefined, &RuntimeError{
				Msg:  fmt.Sprintf("%s.%s is not a function", this.TypeOf(), name),
				Line: e.Line,
			}
		}
	} else {
		if fnVal, err = o.evalExpr(env, e.Fn); err != nil {
			return Undefined, err
		}
		if !fnVal.Object().IsCallable() {
			return Undefined, &RuntimeError{Msg: fnVal.ToString() + " is not a function", Line: e.Line}
		}
	}
	args, err := o.evalArgs(env, e.Args)
	if err != nil {
		return Undefined, err
	}
	return it.callFunction(fnVal.Object(), this, args, e.Line)
}
