package js

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// Env is one local scope of a running program: a function activation or a
// catch clause. Its slots hold the scope's locals in the order the
// resolver numbered them (resolve.go); globals live in the interpreter's
// map, so a top-level function's Env has no parent.
type Env struct {
	slots  []Value
	parent *Env
}

// up returns the scope depth hops out.
func (e *Env) up(depth int) *Env {
	for ; depth > 0; depth-- {
		e = e.parent
	}
	return e
}

// Frame describes one live function activation. It is what the hot-node
// detector inspects: the function name and the actual argument values —
// the thesis's StackInfo.getHotnodeInfo() reads exactly these. The
// interpreter reuses its frames: one is valid until the next call at
// its depth.
type Frame struct {
	FuncName string
	Args     []Value
	Line     int // call-site line
	// Native marks frames of Go-implemented functions (host methods,
	// builtins). Hot-node detection looks for the topmost non-native
	// frame — the user function whose call opened the XMLHttpRequest.
	Native bool
}

// Key renders the frame as "name(arg1,arg2,...)" — the canonical form
// used as hot-node cache key (§4.4.1), in one allocation when every
// argument is a string.
func (f *Frame) Key() string {
	n := len(f.FuncName) + len(f.Args) + 2
	for _, a := range f.Args {
		n += len(a.str)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(f.FuncName)
	b.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.ToString())
	}
	b.WriteByte(')')
	return b.String()
}

// Thrown wraps a JavaScript value raised by `throw`.
type Thrown struct{ Value Value }

func (t *Thrown) Error() string { return "js: uncaught " + t.Value.ToString() }

// RuntimeError is an interpreter-detected error; catch sees it as a
// TypeError.
type RuntimeError struct {
	Msg  string
	Line int
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("js: runtime error at line %d: %s", e.Line, e.Msg)
}

// ErrBudget is returned when the step budget is exhausted — the hard
// limit the thesis applies against infinite loops (§3.2).
var ErrBudget = fmt.Errorf("js: execution step budget exhausted")

// ErrMemory is returned when the byte budget is exhausted: the strings
// and array growth of one dispatch (see Interp.charge). Like ErrBudget it
// is not catchable by try/catch.
var ErrMemory = errors.New("js: execution memory budget exhausted")

// Interrupted wraps the cause delivered by an Interrupt hook (typically
// a context error). Like ErrBudget it is not catchable by try/catch, so
// hostile scripts cannot swallow a cancellation.
type Interrupted struct{ Cause error }

func (e *Interrupted) Error() string { return "js: interrupted: " + e.Cause.Error() }

// Unwrap exposes the cause so errors.Is(err, context.Canceled) works.
func (e *Interrupted) Unwrap() error { return e.Cause }

// Control-flow signals travel up as errors. Each is pointer-shaped or
// empty, so raising one allocates nothing; a return's value waits in
// Interp.ret until its call takes it.
type breakSignal struct{ s *Break }
type continueSignal struct{ s *Continue }
type returnSignal struct{}

func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }
func (returnSignal) Error() string   { return "return outside function" }

// Interp executes parsed programs. An Interp is not safe for concurrent
// use; the crawler creates one per page.
type Interp struct {
	GlobalThis Value

	// MaxSteps bounds the number of AST evaluations per Run/Call to
	// defend against infinite loops. Zero means the default.
	MaxSteps int
	steps    int
	bytes    int // charged since the last ResetBudget

	// Interrupt, when set, is polled every interruptCheckMask+1 steps.
	// A non-nil return preempts execution with an *Interrupted error
	// that try/catch cannot swallow — this is how a context cancel
	// reaches into a running (possibly hostile) script. The crawler
	// sets it to ctx.Err before each handler dispatch.
	Interrupt func() error

	// MaxDepth bounds recursion. Zero means the default.
	MaxDepth int

	globals map[string]Value
	// stack holds the live frames; the frames past its length are kept
	// for the next calls to reuse.
	stack []*Frame
	// vals is the value stack: argument lists, and the slots of the
	// scopes no closure can capture, pushed and popped with the calls
	// and catch clauses that own them. envs[:nenv] are the headers of
	// those scopes, reused the same way.
	vals []Value
	sp   int
	envs []*Env
	nenv int
	ret  Value // the value of the return statement being unwound

	// pendingLabel is set by a labeled statement and consumed by the
	// loop statement it wraps, so the loop can recognize labeled
	// break/continue that target it.
	pendingLabel string
}

const (
	defaultMaxSteps = 10_000_000
	// maxBytes is the byte budget of one dispatch: the strings it builds
	// and the array elements it allocates, counted before allocation.
	maxBytes = 64 << 20
	// maxNesting bounds the depth of a parsed syntax tree, the depth
	// JSON.parse allows (maxJSONDepth); a deeper script is a syntax error.
	maxNesting      = 512
	defaultMaxDepth = 250
	// interruptCheckMask throttles Interrupt polling to every 256 steps
	// so the hot interpreter loop stays cheap.
	interruptCheckMask = 0xFF

	valueSize = int(unsafe.Sizeof(Value{}))
)

// New returns an interpreter with the library's globals installed.
func New() *Interp {
	it := &Interp{globals: make(map[string]Value)}
	globalObj := NewObject()
	it.GlobalThis = ObjVal(globalObj)
	installBuiltins(it)
	return it
}

// DefineGlobal binds a global variable.
func (it *Interp) DefineGlobal(name string, v Value) { it.globals[name] = v }

// LookupGlobal reads a global variable.
func (it *Interp) LookupGlobal(name string) (Value, bool) {
	v, ok := it.globals[name]
	return v, ok
}

// TopUserFrame returns the innermost non-native frame, or nil when no
// user function is executing. This is what StackInfo.getHotnodeInfo()
// reads in the thesis implementation (§4.4.1).
func (it *Interp) TopUserFrame() *Frame {
	for i := len(it.stack) - 1; i >= 0; i-- {
		if !it.stack[i].Native {
			return it.stack[i]
		}
	}
	return nil
}

// ResetBudget clears the step and byte counters (called per event
// dispatch so each handler invocation gets a fresh budget).
func (it *Interp) ResetBudget() { it.steps, it.bytes = 0, 0 }

func (it *Interp) step(line int) error {
	it.steps++
	max := it.MaxSteps
	if max == 0 {
		max = defaultMaxSteps
	}
	if it.steps > max {
		return ErrBudget
	}
	if it.Interrupt != nil && it.steps&interruptCheckMask == 0 {
		if err := it.Interrupt(); err != nil {
			return &Interrupted{Cause: err}
		}
	}
	return nil
}

// charge counts n items of size bytes each — string bytes, or array
// elements of valueSize — against the byte budget before they are built.
func (it *Interp) charge(n, size int) error {
	if n > (maxBytes-it.bytes)/size {
		return ErrMemory
	}
	it.bytes += n * size
	return nil
}

// reserve pushes n undefined values on the value stack and returns the
// index of the first.
func (it *Interp) reserve(n int) int {
	base := it.sp
	if base+n > len(it.vals) {
		// Scopes already carved keep the old array; they are popped
		// before anything reads these positions of the new one.
		grown := make([]Value, max(2*len(it.vals), base+n, 32))
		copy(grown, it.vals[:base])
		it.vals = grown
	}
	it.sp = base + n
	clear(it.vals[base:it.sp])
	return base
}

// newEnv opens an n-slot scope. If the resolver found a function literal
// inside, a closure may capture it and it lives on the heap; otherwise it
// lives on the value stack, since nothing references it once it is left,
// and its owner pops it by restoring sp and nenv.
func (it *Interp) newEnv(closes bool, n int, parent *Env) *Env {
	if closes {
		return &Env{slots: make([]Value, n), parent: parent}
	}
	base := it.reserve(n)
	if it.nenv == len(it.envs) {
		it.envs = append(it.envs, new(Env))
	}
	e := it.envs[it.nenv]
	it.nenv++
	e.slots, e.parent = it.vals[base:it.sp:it.sp], parent
	return e
}

// load and store read and write a resolved name.
func (it *Interp) load(env *Env, r ref, name string) (Value, bool) {
	if r.slot >= 0 {
		return env.up(r.depth).slots[r.slot], true
	}
	v, ok := it.globals[name]
	return v, ok
}

func (it *Interp) store(env *Env, r ref, name string, v Value) {
	if r.slot >= 0 {
		env.up(r.depth).slots[r.slot] = v
		return
	}
	it.globals[name] = v
}

// Run parses and executes src in the global scope.
func (it *Interp) Run(src string) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return Undefined, err
	}
	return it.RunProgram(prog)
}

// RunProgram executes a program from Parse in the global scope. Execution
// never writes to prog: one Program may run on any number of
// interpreters, concurrently.
func (it *Interp) RunProgram(prog *Program) (Value, error) {
	if prog.fn != nil {
		panic("js: RunProgram of a program parsed as a function body")
	}
	for _, name := range prog.VarNames {
		if _, ok := it.globals[name]; !ok {
			it.globals[name] = Undefined
		}
	}
	for _, fn := range prog.FuncDecls {
		it.globals[fn.Name] = ObjVal(it.makeFunction(fn, nil))
	}
	var last Value
	for _, s := range prog.Stmts {
		v, err := it.execStmt(nil, s)
		if err != nil {
			switch err.(type) {
			case breakSignal, continueSignal, returnSignal:
				return Undefined, &RuntimeError{Msg: err.Error(), Line: s.Pos()}
			}
			return Undefined, err
		}
		last = v
	}
	return last, nil
}

func (it *Interp) makeFunction(fn *FuncLit, env *Env) *Object {
	return &Object{Class: "Function", Fn: fn, Env: env, Name: fn.Name}
}

// Call invokes a callable value with the given this and arguments.
func (it *Interp) Call(fn Value, this Value, args []Value) (Value, error) {
	obj := fn.Object()
	if !obj.IsCallable() {
		return Undefined, &RuntimeError{Msg: fn.ToString() + " is not a function"}
	}
	return it.callFunction(obj, this, args, 0)
}

// callFunction runs a call in the next frame of the stack. args may live
// on the value stack: a native that keeps them past its return copies.
func (it *Interp) callFunction(fnObj *Object, this Value, args []Value, line int) (Value, error) {
	maxDepth := it.MaxDepth
	if maxDepth == 0 {
		maxDepth = defaultMaxDepth
	}
	d := len(it.stack)
	if d >= maxDepth {
		return Undefined, &RuntimeError{Msg: "maximum call depth exceeded", Line: line}
	}
	name := fnObj.Name
	if name == "" {
		name = "<anonymous>"
	}
	if d < cap(it.stack) {
		it.stack = it.stack[:d+1]
	} else {
		it.stack = append(it.stack, nil)
	}
	frame := it.stack[d]
	if frame == nil {
		frame = new(Frame)
		it.stack[d] = frame
	}
	*frame = Frame{FuncName: name, Args: args, Line: line, Native: fnObj.Native != nil}
	var result Value
	var err error
	if fnObj.Native != nil {
		result, err = fnObj.Native(it, this, args)
	} else {
		result, err = it.callUser(fnObj, this, args)
	}
	frame.Args = nil
	it.stack = it.stack[:d]
	return result, err
}

// callUser binds a call's scope the way the resolver laid it out:
// parameters, arguments (if the body names it), this, the function's own
// name, then the hoisted function declarations.
func (it *Interp) callUser(fnObj *Object, this Value, args []Value) (Value, error) {
	fn := fnObj.Fn
	sp, nenv := it.sp, it.nenv
	env := it.newEnv(fn.closes, fn.nslots, fnObj.Env)
	copy(env.slots[:len(fn.Params)], args)
	if fn.argsSlot >= 0 {
		env.slots[fn.argsSlot] = ObjVal(NewArray(slices.Clone(args)...))
	}
	env.slots[fn.thisSlot] = this
	if fn.selfSlot >= 0 {
		env.slots[fn.selfSlot] = ObjVal(fnObj)
	}
	for i, d := range fn.FuncDecls {
		env.slots[fn.declSlots[i]] = ObjVal(it.makeFunction(d, env))
	}
	result, err := Undefined, error(nil)
	for _, s := range fn.Body {
		if _, err = it.execStmt(env, s); err != nil {
			if _, ok := err.(returnSignal); ok {
				result, err, it.ret = it.ret, nil, Undefined
			}
			break
		}
	}
	it.sp, it.nenv = sp, nenv
	return result, err
}

// ---- statement execution ----

func (it *Interp) execStmt(env *Env, n Node) (Value, error) {
	if err := it.step(n.Pos()); err != nil {
		return Undefined, err
	}
	switch s := n.(type) {
	case *Empty, *FuncDecl:
		// Function declarations were hoisted.
		return Undefined, nil
	case *VarDecl:
		for i, init := range s.Inits {
			if init == nil {
				continue
			}
			v, err := it.evalExpr(env, init)
			if err != nil {
				return Undefined, err
			}
			it.store(env, s.refs[i], s.Names[i], v)
		}
		return Undefined, nil
	case *ExprStmt:
		return it.evalExpr(env, s.X)
	case *Block:
		var last Value
		for _, st := range s.Stmts {
			v, err := it.execStmt(env, st)
			if err != nil {
				return Undefined, err
			}
			last = v
		}
		return last, nil
	case *If:
		test, err := it.evalExpr(env, s.Test)
		if err != nil {
			return Undefined, err
		}
		if test.ToBool() {
			return it.execStmt(env, s.Then)
		}
		if s.Else != nil {
			return it.execStmt(env, s.Else)
		}
		return Undefined, nil
	case *DoWhile:
		label := it.takeLabel()
		for {
			if err := it.execLoopBody(env, s.Body, label); err != nil {
				if loopBreaks(err, label) {
					return Undefined, nil
				}
				return Undefined, err
			}
			test, err := it.evalExpr(env, s.Test)
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
			if _, err := it.execInitOrExpr(env, s.Init); err != nil {
				return Undefined, err
			}
		}
		for {
			if s.Test != nil {
				test, err := it.evalExpr(env, s.Test)
				if err != nil {
					return Undefined, err
				}
				if !test.ToBool() {
					return Undefined, nil
				}
			}
			if err := it.execLoopBody(env, s.Body, label); err != nil {
				if loopBreaks(err, label) {
					return Undefined, nil
				}
				return Undefined, err
			}
			if s.Post != nil {
				if _, err := it.evalExpr(env, s.Post); err != nil {
					return Undefined, err
				}
			}
		}
	case *ForIn:
		label := it.takeLabel()
		obj, err := it.evalExpr(env, s.Obj)
		if err != nil {
			return Undefined, err
		}
		for _, k := range forInKeys(obj) {
			it.store(env, s.ref, s.Name, Str(k))
			if err := it.execLoopBody(env, s.Body, label); err != nil {
				if loopBreaks(err, label) {
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
			v, err = it.evalExpr(env, s.Value)
			if err != nil {
				return Undefined, err
			}
		}
		it.ret = v
		return Undefined, returnSignal{}
	case *Break:
		return Undefined, breakSignal{s}
	case *Continue:
		return Undefined, continueSignal{s}
	case *Labeled:
		return it.execLabeled(env, s)
	case *Throw:
		v, err := it.evalExpr(env, s.Value)
		if err != nil {
			return Undefined, err
		}
		return Undefined, &Thrown{Value: v}
	case *Try:
		return it.execTry(env, s)
	case *Switch:
		return it.execSwitch(env, s)
	}
	return Undefined, &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", n), Line: n.Pos()}
}

// forInKeys lists what for-in enumerates: an object's keys, a string's
// indices, nothing for anything else.
func forInKeys(obj Value) []string {
	switch obj.Kind() {
	case KindObject:
		return obj.Object().OwnKeys()
	case KindString:
		keys := make([]string, len(obj.StrVal()))
		for i := range keys {
			keys[i] = strconv.Itoa(i)
		}
		return keys
	}
	return nil
}

func (it *Interp) execInitOrExpr(env *Env, n Node) (Value, error) {
	if vd, ok := n.(*VarDecl); ok {
		return it.execStmt(env, vd)
	}
	return it.evalExpr(env, n)
}

// takeLabel consumes the pending label set by an enclosing Labeled
// statement; loop statements call it on entry.
func (it *Interp) takeLabel() string {
	l := it.pendingLabel
	it.pendingLabel = ""
	return l
}

// execLoopBody runs a loop body, swallowing continues that target this
// loop (unlabeled, or labeled with the loop's own label).
func (it *Interp) execLoopBody(env *Env, body Node, label string) error {
	_, err := it.execStmt(env, body)
	if err != nil {
		if c, ok := err.(continueSignal); ok && (c.s.Label == "" || c.s.Label == label) {
			return nil
		}
		return err
	}
	return nil
}

// loopBreaks reports whether err is a break targeting this loop.
func loopBreaks(err error, label string) bool {
	b, ok := err.(breakSignal)
	return ok && (b.s.Label == "" || (label != "" && b.s.Label == label))
}

// execLabeled runs `name: stmt`. For loops, the label is handed to the
// loop statement (via pendingLabel) so labeled continue works; for other
// statements, a matching labeled break simply exits the statement.
func (it *Interp) execLabeled(env *Env, s *Labeled) (Value, error) {
	switch s.Stmt.(type) {
	case *DoWhile, *For, *ForIn:
		it.pendingLabel = s.Name
	}
	v, err := it.execStmt(env, s.Stmt)
	if b, ok := err.(breakSignal); ok && b.s.Label == s.Name {
		return Undefined, nil
	}
	return v, err
}

func (it *Interp) execTry(env *Env, s *Try) (Value, error) {
	_, bodyErr := it.execStmt(env, s.Body)
	// Catch handles thrown JS values and runtime errors; control-flow
	// signals and budget exhaustion pass through.
	if bodyErr != nil && s.Catch != nil && isCatchable(bodyErr) {
		sp, nenv := it.sp, it.nenv
		catchEnv := it.newEnv(s.catchCloses, 1, env)
		catchEnv.slots[0] = errToValue(bodyErr)
		_, bodyErr = it.execStmt(catchEnv, s.Catch)
		it.sp, it.nenv = sp, nenv
	}
	if s.Finally != nil {
		ret := it.ret // a return unwinding through finally keeps its value
		if _, finErr := it.execStmt(env, s.Finally); finErr != nil {
			return Undefined, finErr // finally overrides
		}
		it.ret = ret
	}
	if bodyErr != nil {
		return Undefined, bodyErr
	}
	return Undefined, nil
}

func isCatchable(err error) bool {
	switch err.(type) {
	case *Thrown, *RuntimeError:
		return true
	}
	return false
}

// errToValue converts a caught error into the JS value seen by catch: a
// thrown value as thrown, a runtime error as a TypeError with its message.
func errToValue(err error) Value {
	if t, ok := err.(*Thrown); ok {
		return t.Value
	}
	return ObjVal(newError("TypeError", err.(*RuntimeError).Msg))
}

func (it *Interp) execSwitch(env *Env, s *Switch) (Value, error) {
	disc, err := it.evalExpr(env, s.Disc)
	if err != nil {
		return Undefined, err
	}
	start := -1
	for i, c := range s.Cases {
		if c.Test == nil {
			continue
		}
		tv, err := it.evalExpr(env, c.Test)
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
			if _, err := it.execStmt(env, st); err != nil {
				if b, ok := err.(breakSignal); ok && b.s.Label == "" {
					return Undefined, nil
				}
				return Undefined, err
			}
		}
	}
	return Undefined, nil
}

// ---- expression evaluation ----

func (it *Interp) evalExpr(env *Env, n Node) (Value, error) {
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
		if e.ref.slot < 0 {
			return it.GlobalThis, nil
		}
		return env.up(e.ref.depth).slots[e.ref.slot], nil
	case *Ident:
		if v, ok := it.load(env, e.ref, e.Name); ok {
			return v, nil
		}
		return Undefined, &RuntimeError{Msg: e.Name + " is not defined", Line: e.Line}
	case *ArrayLit:
		arr := make([]Value, len(e.Elems))
		for i, el := range e.Elems {
			v, err := it.evalExpr(env, el)
			if err != nil {
				return Undefined, err
			}
			arr[i] = v
		}
		return ObjVal(NewArray(arr...)), nil
	case *ObjectLit:
		o := NewObject()
		for i, k := range e.Keys {
			v, err := it.evalExpr(env, e.Values[i])
			if err != nil {
				return Undefined, err
			}
			o.SetProp(k, v)
		}
		return ObjVal(o), nil
	case *FuncLit:
		return ObjVal(it.makeFunction(e, env)), nil
	case *Seq:
		var last Value
		for _, x := range e.Exprs {
			v, err := it.evalExpr(env, x)
			if err != nil {
				return Undefined, err
			}
			last = v
		}
		return last, nil
	case *Cond:
		test, err := it.evalExpr(env, e.Test)
		if err != nil {
			return Undefined, err
		}
		if test.ToBool() {
			return it.evalExpr(env, e.Then)
		}
		return it.evalExpr(env, e.Else)
	case *Logical:
		l, err := it.evalExpr(env, e.L)
		if err != nil {
			return Undefined, err
		}
		if e.Op == AND {
			if !l.ToBool() {
				return l, nil
			}
			return it.evalExpr(env, e.R)
		}
		if l.ToBool() {
			return l, nil
		}
		return it.evalExpr(env, e.R)
	case *Binary:
		l, err := it.evalExpr(env, e.L)
		if err != nil {
			return Undefined, err
		}
		r, err := it.evalExpr(env, e.R)
		if err != nil {
			return Undefined, err
		}
		return it.binary(e, l, r)
	case *Unary:
		return it.evalUnary(env, e)
	case *Postfix:
		old, err := it.evalExpr(env, e.X)
		if err != nil {
			return Undefined, err
		}
		n := old.ToNumber()
		delta := 1.0
		if e.Op == DEC {
			delta = -1
		}
		if err := it.assignTo(env, e.X, Num(n+delta), e.Line); err != nil {
			return Undefined, err
		}
		return Num(n), nil
	case *Assign:
		return it.evalAssign(env, e)
	case *Member:
		obj, err := it.evalExpr(env, e.X)
		if err != nil {
			return Undefined, err
		}
		name, err := it.memberName(env, e)
		if err != nil {
			return Undefined, err
		}
		return it.getMember(obj, name, e.Line)
	case *Call:
		return it.evalCall(env, e)
	case *NewExpr:
		return it.evalNew(env, e)
	}
	return Undefined, &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", n), Line: n.Pos()}
}

func (it *Interp) memberName(env *Env, m *Member) (string, error) {
	if m.Index == nil {
		return m.Name, nil
	}
	idx, err := it.evalExpr(env, m.Index)
	if err != nil {
		return "", err
	}
	return idx.ToString(), nil
}

// getMember reads obj.name: a string's length and characters, and an
// object's properties through host objects, arrays and the proto chain.
// Primitives have no methods (DESIGN.md "Interpreter contract").
func (it *Interp) getMember(obj Value, name string, line int) (Value, error) {
	switch obj.Kind() {
	case KindString:
		s := obj.StrVal()
		if name == "length" {
			return Num(float64(len(s))), nil
		}
		if idx, err := strconv.Atoi(name); err == nil && idx >= 0 && idx < len(s) {
			return Str(string(s[idx])), nil
		}
		return Undefined, nil
	case KindNumber, KindBool:
		return Undefined, nil
	case KindObject:
		o := obj.Object()
		if v, ok := o.Get(name); ok {
			return v, nil
		}
		// Every user function exposes a .prototype object, created on
		// first access (new() relies on it for the proto chain).
		if name == "prototype" && o.Fn != nil {
			proto := NewObject()
			o.SetProp("prototype", ObjVal(proto))
			return ObjVal(proto), nil
		}
		return Undefined, nil
	}
	return Undefined, &RuntimeError{
		Msg:  fmt.Sprintf("cannot read property %q of %s", name, obj.ToString()),
		Line: line,
	}
}

// putMember writes objV.name: host hook first, then the array length and
// elements, whose growth is charged, then an own property.
func (it *Interp) putMember(objV Value, name string, v Value, line int) error {
	o := objV.Object()
	if o == nil {
		return &RuntimeError{
			Msg:  fmt.Sprintf("cannot set property %q of %s", name, objV.ToString()),
			Line: line,
		}
	}
	if o.Host != nil && o.Host.HostSet(name, v) {
		return nil
	}
	if o.IsArray() {
		if name == "length" {
			n, err := arrayLength(v)
			if err != nil {
				err.Line = line
				return err
			}
			return it.resize(o, n)
		}
		if i, ok := arrayIndex(name); ok {
			if i >= len(o.Elems) {
				if err := it.resize(o, i+1); err != nil {
					return err
				}
			}
			o.Elems[i] = v
			return nil
		}
	}
	o.SetProp(name, v)
	return nil
}

// resize sets an array's length, charging the elements it adds.
func (it *Interp) resize(o *Object, n int) error {
	if grow := n - len(o.Elems); grow > 0 {
		if err := it.charge(grow, valueSize); err != nil {
			return err
		}
		o.Elems = append(o.Elems, make([]Value, grow)...)
	}
	o.Elems = o.Elems[:n]
	return nil
}

// arrayLength validates a new array length: an integer in [0, 2³²−1].
// Lengths past 2³¹−1 are clamped there, which no byte budget admits.
func arrayLength(v Value) (int, *RuntimeError) {
	f := v.ToNumber()
	if f < 0 || f > math.MaxUint32 || f != math.Trunc(f) {
		return 0, &RuntimeError{Msg: "invalid array length " + v.ToString()}
	}
	return int(min(f, math.MaxInt32)), nil
}

func (it *Interp) evalAssign(env *Env, e *Assign) (Value, error) {
	var v Value
	var err error
	if e.Op == ASSIGN {
		v, err = it.evalExpr(env, e.Value)
		if err != nil {
			return Undefined, err
		}
	} else {
		old, err := it.evalExpr(env, e.Target)
		if err != nil {
			return Undefined, err
		}
		rhs, err := it.evalExpr(env, e.Value)
		if err != nil {
			return Undefined, err
		}
		if v, err = it.compound(e.Op, old, rhs); err != nil {
			return Undefined, err
		}
	}
	if err := it.assignTo(env, e.Target, v, e.Line); err != nil {
		return Undefined, err
	}
	return v, nil
}

// compound applies the operator of a compound assignment.
func (it *Interp) compound(op TokenType, old, rhs Value) (Value, error) {
	switch op {
	case PLUSASSIGN:
		return it.add(old, rhs)
	case MINUSASSIGN:
		return Num(old.ToNumber() - rhs.ToNumber()), nil
	case STARASSIGN:
		return Num(old.ToNumber() * rhs.ToNumber()), nil
	case SLASHASSIGN:
		return Num(old.ToNumber() / rhs.ToNumber()), nil
	case PERCENTASSIGN:
		return Num(math.Mod(old.ToNumber(), rhs.ToNumber())), nil
	}
	return Undefined, nil
}

func (it *Interp) assignTo(env *Env, target Node, v Value, line int) error {
	switch t := target.(type) {
	case *Ident:
		// An unresolved name is an implicit global, as sloppy-mode JS has it.
		it.store(env, t.ref, t.Name, v)
		return nil
	case *Member:
		objV, err := it.evalExpr(env, t.X)
		if err != nil {
			return err
		}
		name, err := it.memberName(env, t)
		if err != nil {
			return err
		}
		return it.putMember(objV, name, v, line)
	}
	return &RuntimeError{Msg: "invalid assignment target", Line: line}
}

func (it *Interp) evalUnary(env *Env, e *Unary) (Value, error) {
	if e.Op == KEYWORD {
		switch e.KwOp {
		case "typeof":
			// typeof of an undefined variable must not throw.
			if id, ok := e.X.(*Ident); ok {
				if v, found := it.load(env, id.ref, id.Name); found {
					return Str(v.TypeOf()), nil
				}
				return Str("undefined"), nil
			}
			v, err := it.evalExpr(env, e.X)
			if err != nil {
				return Undefined, err
			}
			return Str(v.TypeOf()), nil
		case "void":
			if _, err := it.evalExpr(env, e.X); err != nil {
				return Undefined, err
			}
			return Undefined, nil
		case "delete":
			m, ok := e.X.(*Member)
			if !ok {
				return Bool(false), nil
			}
			objV, err := it.evalExpr(env, m.X)
			if err != nil {
				return Undefined, err
			}
			name, err := it.memberName(env, m)
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
	switch e.Op {
	case INC, DEC:
		old, err := it.evalExpr(env, e.X)
		if err != nil {
			return Undefined, err
		}
		delta := 1.0
		if e.Op == DEC {
			delta = -1
		}
		nv := Num(old.ToNumber() + delta)
		if err := it.assignTo(env, e.X, nv, e.Line); err != nil {
			return Undefined, err
		}
		return nv, nil
	}
	v, err := it.evalExpr(env, e.X)
	if err != nil {
		return Undefined, err
	}
	return unary(e, v)
}

// unary applies a value operator: !, -, + or ~.
func unary(e *Unary, v Value) (Value, error) {
	switch e.Op {
	case NOT:
		return Bool(!v.ToBool()), nil
	case MINUS:
		return Num(-v.ToNumber()), nil
	case PLUS:
		return Num(v.ToNumber()), nil
	case BITNOT:
		return Num(float64(^v.ToInt32())), nil
	}
	return Undefined, &RuntimeError{Msg: "unknown unary operator", Line: e.Line}
}

// add implements the + operator, charging the string it builds.
func (it *Interp) add(a, b Value) (Value, error) {
	ap, bp := a.toPrimitive(), b.toPrimitive()
	if ap.Kind() == KindString || bp.Kind() == KindString {
		as, bs := ap.ToString(), bp.ToString()
		if err := it.charge(len(as)+len(bs), 1); err != nil {
			return Undefined, err
		}
		return Str(as + bs), nil
	}
	return Num(ap.ToNumber() + bp.ToNumber()), nil
}

// binary applies a binary operator to its evaluated operands.
func (it *Interp) binary(e *Binary, l, r Value) (Value, error) {
	if e.Op == KEYWORD {
		switch e.KwOp {
		case "in":
			o := r.Object()
			if o == nil {
				return Undefined, &RuntimeError{Msg: "'in' requires an object", Line: e.Line}
			}
			return Bool(o.Has(l.ToString())), nil
		case "instanceof":
			fn := r.Object()
			if !fn.IsCallable() {
				return Undefined, &RuntimeError{Msg: "instanceof requires a function", Line: e.Line}
			}
			protoV, _ := fn.Get("prototype")
			proto := protoV.Object()
			o := l.Object()
			for o != nil {
				if o.Proto == proto && proto != nil {
					return Bool(true), nil
				}
				o = o.Proto
			}
			return Bool(false), nil
		}
	}
	switch e.Op {
	case PLUS:
		return it.add(l, r)
	case MINUS:
		return Num(l.ToNumber() - r.ToNumber()), nil
	case STAR:
		return Num(l.ToNumber() * r.ToNumber()), nil
	case SLASH:
		return Num(l.ToNumber() / r.ToNumber()), nil
	case PERCENT:
		return Num(math.Mod(l.ToNumber(), r.ToNumber())), nil
	case EQ:
		return Bool(LooseEquals(l, r)), nil
	case NEQ:
		return Bool(!LooseEquals(l, r)), nil
	case SEQ:
		return Bool(StrictEquals(l, r)), nil
	case SNEQ:
		return Bool(!StrictEquals(l, r)), nil
	case LT, GT, LE, GE:
		return compareValues(e.Op, l, r), nil
	case BITAND:
		return Num(float64(l.ToInt32() & r.ToInt32())), nil
	case BITOR:
		return Num(float64(l.ToInt32() | r.ToInt32())), nil
	case BITXOR:
		return Num(float64(l.ToInt32() ^ r.ToInt32())), nil
	case SHL:
		return Num(float64(l.ToInt32() << (uint32(r.ToUint32()) & 31))), nil
	case SHR:
		return Num(float64(l.ToInt32() >> (uint32(r.ToUint32()) & 31))), nil
	case USHR:
		return Num(float64(l.ToUint32() >> (uint32(r.ToUint32()) & 31))), nil
	}
	return Undefined, &RuntimeError{Msg: "unknown binary operator", Line: e.Line}
}

func compareValues(op TokenType, l, r Value) Value {
	lp, rp := l.toPrimitive(), r.toPrimitive()
	if lp.Kind() == KindString && rp.Kind() == KindString {
		ls, rs := lp.StrVal(), rp.StrVal()
		switch op {
		case LT:
			return Bool(ls < rs)
		case GT:
			return Bool(ls > rs)
		case LE:
			return Bool(ls <= rs)
		case GE:
			return Bool(ls >= rs)
		}
	}
	ln, rn := lp.ToNumber(), rp.ToNumber()
	if math.IsNaN(ln) || math.IsNaN(rn) {
		return Bool(false)
	}
	switch op {
	case LT:
		return Bool(ln < rn)
	case GT:
		return Bool(ln > rn)
	case LE:
		return Bool(ln <= rn)
	case GE:
		return Bool(ln >= rn)
	}
	return Bool(false)
}

func (it *Interp) evalCall(env *Env, e *Call) (Value, error) {
	var this Value = it.GlobalThis
	var fnVal Value
	var err error
	if m, ok := e.Fn.(*Member); ok {
		this, err = it.evalExpr(env, m.X)
		if err != nil {
			return Undefined, err
		}
		name, err := it.memberName(env, m)
		if err != nil {
			return Undefined, err
		}
		fnVal, err = it.getMember(this, name, e.Line)
		if err != nil {
			return Undefined, err
		}
		if !fnVal.Object().IsCallable() {
			return Undefined, &RuntimeError{
				Msg:  fmt.Sprintf("%s.%s is not a function", this.TypeOf(), name),
				Line: e.Line,
			}
		}
	} else {
		fnVal, err = it.evalExpr(env, e.Fn)
		if err != nil {
			return Undefined, err
		}
		if !fnVal.Object().IsCallable() {
			return Undefined, &RuntimeError{Msg: fnVal.ToString() + " is not a function", Line: e.Line}
		}
	}
	base, err := it.evalArgs(env, e.Args)
	if err != nil {
		return Undefined, err
	}
	result, err := it.callFunction(fnVal.Object(), this, it.vals[base:it.sp:it.sp], e.Line)
	it.sp = base
	return result, err
}

// evalArgs evaluates an argument list onto the value stack and returns
// the index of the first; the caller pops it by restoring sp.
func (it *Interp) evalArgs(env *Env, args []Node) (int, error) {
	base := it.reserve(len(args))
	for i, a := range args {
		v, err := it.evalExpr(env, a)
		if err != nil {
			it.sp = base
			return 0, err
		}
		it.vals[base+i] = v
	}
	return base, nil
}

func (it *Interp) evalNew(env *Env, e *NewExpr) (Value, error) {
	fnVal, err := it.evalExpr(env, e.Fn)
	if err != nil {
		return Undefined, err
	}
	fnObj := fnVal.Object()
	if !fnObj.IsCallable() {
		return Undefined, &RuntimeError{Msg: "new requires a function", Line: e.Line}
	}
	base, err := it.evalArgs(env, e.Args)
	if err != nil {
		return Undefined, err
	}
	obj := newInstance(fnObj)
	result, err := it.callFunction(fnObj, ObjVal(obj), it.vals[base:it.sp:it.sp], e.Line)
	it.sp = base
	if err != nil {
		return Undefined, err
	}
	if result.Kind() == KindObject {
		return result, nil
	}
	return ObjVal(obj), nil
}

// newInstance makes the receiver of `new fnObj`, wired to fnObj's
// prototype (created on first use).
func newInstance(fnObj *Object) *Object {
	obj := NewObject()
	if protoV, ok := fnObj.GetOwn("prototype"); ok {
		obj.Proto = protoV.Object()
	} else if fnObj.Fn != nil {
		proto := NewObject()
		fnObj.SetProp("prototype", ObjVal(proto))
		obj.Proto = proto
	}
	return obj
}

// CompileFunction wraps a program from ParseFunction as a callable
// zero-argument function closing over the global scope. The embedder uses
// this to turn HTML event-handler attributes (onclick="...") into
// invocable handlers whose `this` can be bound to the source element at
// dispatch time; name is what frames and hot-node keys call it. prog is
// only read, so one parse serves every dispatch.
func (it *Interp) CompileFunction(name string, prog *Program) Value {
	if prog.fn == nil {
		panic("js: CompileFunction of a program not parsed as a function body")
	}
	return ObjVal(&Object{Class: "Function", Fn: prog.fn, Name: name})
}
