package js

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// run evaluates src in a fresh interpreter and fails the test on error.
func run(t *testing.T, src string) Value {
	t.Helper()
	it := New()
	v, err := it.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return v
}

// expectNum asserts that src evaluates to the number want.
func expectNum(t *testing.T, src string, want float64) {
	t.Helper()
	v := run(t, src)
	if v.Kind() != KindNumber || v.NumVal() != want {
		t.Fatalf("%q = %v, want %v", src, v, want)
	}
}

func expectStr(t *testing.T, src string, want string) {
	t.Helper()
	v := run(t, src)
	if v.Kind() != KindString || v.StrVal() != want {
		t.Fatalf("%q = %v, want %q", src, v, want)
	}
}

func expectBool(t *testing.T, src string, want bool) {
	t.Helper()
	v := run(t, src)
	if v.Kind() != KindBool || v.BoolVal() != want {
		t.Fatalf("%q = %v, want %v", src, v, want)
	}
}

func TestArithmetic(t *testing.T) {
	expectNum(t, "1 + 2 * 3", 7)
	expectNum(t, "(1 + 2) * 3", 9)
	expectNum(t, "10 / 4", 2.5)
	expectNum(t, "10 % 3", 1)
	expectNum(t, "-5 + +3", -2)
	expectNum(t, "2 * 2 + 3 * 3", 13)
	expectNum(t, "1e3 + 0x10", 1016)
	expectNum(t, "0.25 + 0.5", 0.75)
}

func TestStringConcat(t *testing.T) {
	expectStr(t, `"a" + "b"`, "ab")
	expectStr(t, `"n=" + 5`, "n=5")
	expectStr(t, `5 + "=n"`, "5=n")
	expectStr(t, `"" + true`, "true")
	expectStr(t, `"" + null`, "null")
	expectStr(t, `"" + undefined`, "undefined")
	expectNum(t, `"3" - 1`, 2) // minus coerces to number
	expectStr(t, `1 + 2 + "x"`, "3x")
	expectStr(t, `"x" + 1 + 2`, "x12")
}

func TestComparisons(t *testing.T) {
	expectBool(t, "1 < 2", true)
	expectBool(t, "2 <= 2", true)
	expectBool(t, "3 > 4", false)
	expectBool(t, `"a" < "b"`, true)
	expectBool(t, `"10" < "9"`, true) // string compare
	expectBool(t, `10 < "9"`, false)  // numeric compare
	expectBool(t, "1 == 1", true)
	expectBool(t, `1 == "1"`, true)
	expectBool(t, `1 === "1"`, false)
	expectBool(t, "null == undefined", true)
	expectBool(t, "null === undefined", false)
	expectBool(t, "NaN == NaN", false)
	expectBool(t, "true == 1", true)
	expectBool(t, "false == 0", true)
	expectBool(t, `1 != 2`, true)
	expectBool(t, `1 !== 1`, false)
}

func TestLogicalShortCircuit(t *testing.T) {
	expectNum(t, "1 && 2", 2)
	expectNum(t, "0 && 2", 0)
	expectNum(t, "0 || 3", 3)
	expectNum(t, "4 || 5", 4)
	// The right side must not evaluate when short-circuited.
	expectNum(t, "var x = 0; false && (x = 1); x", 0)
	expectNum(t, "var x = 0; true || (x = 1); x", 0)
	expectBool(t, "!0", true)
	expectBool(t, "!!''", false)
}

func TestBitwise(t *testing.T) {
	expectNum(t, "5 & 3", 1)
	expectNum(t, "5 | 3", 7)
	expectNum(t, "5 ^ 3", 6)
	expectNum(t, "~5", -6)
	expectNum(t, "1 << 4", 16)
	expectNum(t, "-16 >> 2", -4)
	expectNum(t, "-1 >>> 28", 15)
}

func TestTernaryAndComma(t *testing.T) {
	expectNum(t, "1 ? 2 : 3", 2)
	expectNum(t, "0 ? 2 : 3", 3)
	expectNum(t, "(1, 2, 3)", 3)
}

func TestVariablesAndAssignment(t *testing.T) {
	expectNum(t, "var x = 1; x = x + 1; x", 2)
	expectNum(t, "var x = 1, y = 2; x + y", 3)
	expectNum(t, "var x = 5; x += 3; x", 8)
	expectNum(t, "var x = 5; x -= 3; x", 2)
	expectNum(t, "var x = 5; x *= 3; x", 15)
	expectNum(t, "var x = 6; x /= 3; x", 2)
	expectNum(t, "var x = 7; x %= 3; x", 1)
	expectStr(t, `var s = "a"; s += "b"; s`, "ab")
}

func TestIncrementDecrement(t *testing.T) {
	expectNum(t, "var x = 1; x++; x", 2)
	expectNum(t, "var x = 1; x++", 1) // postfix yields old
	expectNum(t, "var x = 1; ++x", 2) // prefix yields new
	expectNum(t, "var x = 1; x--; x", 0)
	expectNum(t, "var a = [1]; a[0]++; a[0]", 2)
	expectNum(t, "var o = {n: 5}; o.n++; o.n", 6)
}

func TestIfElse(t *testing.T) {
	expectNum(t, "var x; if (1) x = 1; else x = 2; x", 1)
	expectNum(t, "var x; if (0) x = 1; else x = 2; x", 2)
	expectNum(t, "var x = 0; if (0) x = 1; x", 0)
	expectNum(t, `var x; if (0) x = 1; else if (1) x = 2; else x = 3; x`, 2)
}

func TestLoops(t *testing.T) {
	expectNum(t, "var s = 0; for (var i = 0; i < 5; i++) s += i; s", 10)
	expectNum(t, "var s = 0, i = 0; while (i < 4) { s += i; i++; } s", 6)
	expectNum(t, "var s = 0, i = 0; do { s += i; i++; } while (i < 3); s", 3)
	expectNum(t, "var i = 0; do { i++; } while (false); i", 1)
	// break / continue
	expectNum(t, "var s = 0; for (var i = 0; i < 10; i++) { if (i == 3) break; s += i; } s", 3)
	expectNum(t, "var s = 0; for (var i = 0; i < 5; i++) { if (i % 2) continue; s += i; } s", 6)
	// nested loops: break only exits inner
	expectNum(t, `var n = 0;
		for (var i = 0; i < 3; i++) {
			for (var j = 0; j < 3; j++) { if (j == 1) break; n++; }
		}
		n`, 3)
}

func TestForIn(t *testing.T) {
	expectStr(t, `var o = {a: 1, b: 2, c: 3}, ks = "";
		for (var k in o) ks += k; ks`, "abc")
	expectNum(t, `var a = [10, 20, 30], s = 0;
		for (var i in a) s += a[i]; s`, 60)
}

func TestFunctions(t *testing.T) {
	expectNum(t, "function f(a, b) { return a + b; } f(2, 3)", 5)
	expectNum(t, "function f() { return; } f() === undefined ? 1 : 0", 1)
	expectNum(t, "function f(a) { return a; } f() === undefined ? 1 : 0", 1)
	expectNum(t, "var f = function(x) { return x * 2; }; f(21)", 42)
	// Hoisting: call before declaration.
	expectNum(t, "var r = g(); function g() { return 9; } r", 9)
	// Recursion.
	expectNum(t, "function fact(n) { return n <= 1 ? 1 : n * fact(n - 1); } fact(6)", 720)
	// Named function expression self-reference.
	expectNum(t, "var f = function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }; f(10)", 55)
	// arguments object.
	expectNum(t, "function f() { return arguments.length; } f(1, 2, 3)", 3)
	expectNum(t, "function f() { return arguments[1]; } f(5, 7)", 7)
}

func TestClosures(t *testing.T) {
	expectNum(t, `function counter() {
		var n = 0;
		return function() { n++; return n; };
	}
	var c = counter();
	c(); c(); c()`, 3)
	expectNum(t, `function adder(a) { return function(b) { return a + b; }; }
	adder(10)(32)`, 42)
	// Two closures share state.
	expectNum(t, `function mk() {
		var n = 0;
		return [function() { n += 1; }, function() { return n; }];
	}
	var fns = mk(); fns[0](); fns[0](); fns[1]()`, 2)
}

func TestVarHoistingScope(t *testing.T) {
	// var is function-scoped, not block-scoped.
	expectNum(t, "function f() { if (true) { var x = 5; } return x; } f()", 5)
	// Inner var shadows outer.
	expectNum(t, `var x = 1;
	function f() { var x = 2; return x; }
	f() + x`, 3)
	// Assignment without var writes the outer binding.
	expectNum(t, `var x = 1;
	function f() { x = 2; }
	f(); x`, 2)
	// Implicit global creation on unqualified assignment.
	expectNum(t, "function f() { zz = 7; } f(); zz", 7)
}

func TestObjects(t *testing.T) {
	expectNum(t, "var o = {a: 1, b: {c: 2}}; o.a + o.b.c", 3)
	expectNum(t, `var o = {}; o.x = 4; o["y"] = 6; o.x + o.y`, 10)
	expectStr(t, `var o = {"with space": "v"}; o["with space"]`, "v")
	expectBool(t, `var o = {a: 1}; "a" in o`, true)
	expectBool(t, `var o = {a: 1}; "b" in o`, false)
	expectBool(t, `var o = {a: 1}; delete o.a; "a" in o`, false)
	expectBool(t, `var o = {a: undefined}; "a" in o`, true)
	expectStr(t, "typeof {}", "object")
	// Numeric and keyword keys.
	expectNum(t, "var o = {1: 10, "+`"in"`+": 20}; o[1] + o['in']", 30)
}

func TestArrays(t *testing.T) {
	expectNum(t, "var a = [1, 2, 3]; a[0] + a[2]", 4)
	expectNum(t, "[1,2,3].length", 3)
	expectNum(t, "var a = []; a[a.length] = 5; a[a.length] = 6; a.length", 2)
	expectNum(t, "var a = [[1, 2], [3]]; a[1][0] + a[0].length", 5)
	expectStr(t, `"" + [1,2,3]`, "1,2,3")
	expectStr(t, `var a = [1,2,3]; a[1] = "x"; a + ""`, "1,x,3")
	expectBool(t, "[5,6,7][3] === undefined", true)
	// Sparse growth via index assignment.
	expectNum(t, "var a = []; a[3] = 9; a.length", 4)
	// length truncation.
	expectNum(t, "var a = [1,2,3]; a.length = 1; a.length", 1)
	expectStr(t, "typeof []", "object")
}

func TestTypeofAndVoid(t *testing.T) {
	expectStr(t, "typeof 1", "number")
	expectStr(t, "typeof 'x'", "string")
	expectStr(t, "typeof true", "boolean")
	expectStr(t, "typeof undefined", "undefined")
	expectStr(t, "typeof null", "object")
	expectStr(t, "typeof function(){}", "function")
	expectStr(t, "typeof notDefinedAnywhere", "undefined") // must not throw
	expectBool(t, "void 0 === undefined", true)
}

func TestThisAndMethods(t *testing.T) {
	expectNum(t, `var o = {n: 41, get: function() { return this.n + 1; }};
	o.get()`, 42)
	expectNum(t, `var o = {n: 1, bump: function() { this.n += 10; }};
	o.bump(); o.n`, 11)
	// A method copied onto another object binds this to that object.
	expectNum(t, `function get() { return this.v; }
	var o = {v: 7, get: get}; o.get()`, 7)
	expectNum(t, `var o = {f: function() { return this; }}; o["f"]() === o ? 1 : 0`, 1)
}

func TestNewAndPrototypes(t *testing.T) {
	expectNum(t, `function Point(x, y) { this.x = x; this.y = y; }
	var p = new Point(3, 4);
	p.x + p.y`, 7)
	expectNum(t, `function Counter() { this.n = 0; }
	Counter.prototype = {inc: function() { this.n++; }};
	var c = new Counter();
	c.inc(); c.inc(); c.n`, 2)
	expectBool(t, `function A() {}
	var a = new A();
	a instanceof A`, true)
	expectBool(t, `function A() {} function B() {}
	new A() instanceof B`, false)
}

func TestSwitch(t *testing.T) {
	src := `function f(x) {
		switch (x) {
		case 1: return "one";
		case 2:
		case 3: return "few";
		default: return "many";
		}
	}`
	expectStr(t, src+`f(1)`, "one")
	expectStr(t, src+`f(2)`, "few")
	expectStr(t, src+`f(3)`, "few")
	expectStr(t, src+`f(9)`, "many")
	// Fallthrough without return/break.
	expectNum(t, `var n = 0;
	switch (1) { case 1: n += 1; case 2: n += 10; } n`, 11)
	// break exits switch.
	expectNum(t, `var n = 0;
	switch (1) { case 1: n += 1; break; case 2: n += 10; } n`, 1)
	// switch uses strict equality.
	expectStr(t, src+`f("1")`, "many")
}

func TestThrowTryCatch(t *testing.T) {
	expectStr(t, `var r;
	try { throw "boom"; r = "no"; } catch (e) { r = e; }
	r`, "boom")
	expectNum(t, `var r = 0;
	try { r = 1; } catch (e) { r = 2; }
	r`, 1)
	// finally always runs.
	expectNum(t, `var n = 0;
	try { throw 1; } catch (e) { n += 1; } finally { n += 10; }
	n`, 11)
	expectNum(t, `var n = 0;
	function f() { try { return 1; } finally { n = 5; } }
	f(); n`, 5)
	// Runtime errors are catchable.
	expectStr(t, `var r = "none";
	try { undefinedFn(); } catch (e) { r = "caught"; }
	r`, "caught")
	// Uncaught throw surfaces as error.
	it := New()
	_, err := it.Run(`throw "unhandled";`)
	th, ok := err.(*Thrown)
	if !ok || th.Value.ToString() != "unhandled" {
		t.Fatalf("uncaught throw = %v", err)
	}
}

func TestErrorObjects(t *testing.T) {
	expectStr(t, `var r;
	try { throw new Error("msg here"); } catch (e) { r = e.message; }
	r`, "msg here")
}

func TestRuntimeErrors(t *testing.T) {
	it := New()
	if _, err := it.Run("nope()"); err == nil {
		t.Fatalf("calling undefined should error")
	}
	if _, err := it.Run("var x = undefinedVar + 1;"); err == nil {
		t.Fatalf("reading undefined variable should error")
	}
	if _, err := it.Run("null.x"); err == nil {
		t.Fatalf("member of null should error")
	}
	if _, err := it.Run("undefined.x = 1"); err == nil {
		t.Fatalf("assigning member of undefined should error")
	}
	if _, err := it.Run("(4)()"); err == nil {
		t.Fatalf("calling a number should error")
	}
}

func TestStepBudgetStopsInfiniteLoop(t *testing.T) {
	it := New()
	it.MaxSteps = 100000
	_, err := it.Run("while (true) {}")
	if err != ErrBudget {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestMaxDepthStopsRunawayRecursion(t *testing.T) {
	it := New()
	_, err := it.Run("function f() { return f(); } f()")
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("want depth error, got %v", err)
	}
}

func TestGlobalBuiltins(t *testing.T) {
	expectNum(t, `parseInt("42")`, 42)
	expectNum(t, `parseInt("42abc")`, 42)
	expectNum(t, `parseInt("0x1f")`, 31)
	expectNum(t, `parseInt("-7")`, -7)
	expectNum(t, `parseInt("ff", 16)`, 255)
	expectBool(t, `var n = parseInt("zz"); n !== n`, true)
	expectBool(t, `NaN !== NaN && 1/0 === Infinity && undefined === void 0`, true)
	expectStr(t, `encodeURIComponent("a b&c")`, "a%20b%26c")
	expectNum(t, `JSON.parse("[1,2]").length`, 2)
	expectStr(t, `new Error("e").name + "/" + new TypeError("t").name`, "Error/TypeError")
}

func TestNumberFormatting(t *testing.T) {
	expectStr(t, `"" + 1000000`, "1000000")
	expectStr(t, `"" + 1.5`, "1.5")
	expectStr(t, `"" + (0/0)`, "NaN")
	expectStr(t, `"" + (1/0)`, "Infinity")
	expectStr(t, `"" + (-1/0)`, "-Infinity")
}

func TestASIAndNewlines(t *testing.T) {
	expectNum(t, "var x = 1\nvar y = 2\nx + y", 3)
	expectNum(t, "var x = 1; x\n", 1)
	// Restricted return: newline after return means return undefined.
	expectBool(t, "function f() { return\n5; } f() === undefined", true)
	expectNum(t, "function f() { return 5; } f()", 5)
}

func TestComments(t *testing.T) {
	expectNum(t, "// line comment\n1 + 1", 2)
	expectNum(t, "/* block\ncomment */ 2 + 2", 4)
	expectNum(t, "1 + /* inline */ 2", 3)
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"var = 5",
		"function () {}", // declaration without name
		"if (1 {",
		"1 +",
		"var x = ;",
		"'unterminated",
		"/* unterminated",
		"do { } until (1);",
		"switch (x) { what: 1; }",
		"try { }", // try without catch/finally
		"5 = x",
		"x ++ ++",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	_, err := Parse("var x = 1;\nvar y = @;")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want SyntaxError, got %v", err)
	}
	if se.Line != 2 {
		t.Fatalf("error line = %d, want 2", se.Line)
	}
}

func TestStringEscapes(t *testing.T) {
	expectStr(t, `"a\nb"`, "a\nb")
	expectStr(t, `"a\tb"`, "a\tb")
	expectStr(t, `"q\"q"`, `q"q`)
	expectStr(t, `'s\'s'`, "s's")
	expectStr(t, `"\x41"`, "A")
	expectStr(t, `"A"`, "A")
	expectStr(t, `"back\\slash"`, `back\slash`)
}

func TestHostObjectHooks(t *testing.T) {
	it := New()
	host := &fakeHost{props: map[string]Value{"x": Num(10)}}
	o := NewObject()
	o.Host = host
	it.DefineGlobal("h", ObjVal(o))
	v, err := it.Run("h.x + 1")
	if err != nil || v.NumVal() != 11 {
		t.Fatalf("host get failed: %v %v", v, err)
	}
	if _, err := it.Run("h.x = 99"); err != nil {
		t.Fatalf("host set: %v", err)
	}
	if host.props["x"].NumVal() != 99 {
		t.Fatalf("host set not routed, got %v", host.props["x"])
	}
	// Non-host props still work.
	if _, err := it.Run("h.other = 5"); err != nil {
		t.Fatalf("fallthrough set: %v", err)
	}
	v, _ = it.Run("h.other")
	if v.NumVal() != 5 {
		t.Fatalf("fallthrough get = %v", v)
	}
}

type fakeHost struct{ props map[string]Value }

func (f *fakeHost) HostGet(name string) (Value, bool) {
	v, ok := f.props[name]
	return v, ok
}

func (f *fakeHost) HostSet(name string, v Value) bool {
	if _, ok := f.props[name]; ok {
		f.props[name] = v
		return true
	}
	return false
}

func TestNativeFunctions(t *testing.T) {
	it := New()
	calls := 0
	it.DefineGlobal("native", ObjVal(NewNative("native", func(it *Interp, this Value, args []Value) (Value, error) {
		calls++
		return Num(args[0].ToNumber() * 2), nil
	})))
	v, err := it.Run("native(21)")
	if err != nil || v.NumVal() != 42 || calls != 1 {
		t.Fatalf("native call: v=%v err=%v calls=%d", v, err, calls)
	}
}

// TestTopUserFrameInsideCalls: a native called from user code sees the
// live call stack, the innermost user frame with its actual arguments
// first — what hot-node detection reads (§4.4.1) — and the stack is
// empty again once the run ends.
func TestTopUserFrameInsideCalls(t *testing.T) {
	it := New()
	var top string
	var stack []string
	it.DefineGlobal("probe", ObjVal(NewNative("probe", func(it *Interp, this Value, args []Value) (Value, error) {
		top = it.TopUserFrame().Key()
		for _, fr := range it.stack {
			stack = append(stack, fr.FuncName)
		}
		return Undefined, nil
	})))
	_, err := it.Run(`
		function outer(a) { return inner(a + 1, "s"); }
		function inner(n, s) { probe(); return n; }
		outer(1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if top != "inner(2,s)" {
		t.Fatalf("top user frame = %q, want inner(2,s)", top)
	}
	if len(stack) != 3 || stack[0] != "outer" || stack[1] != "inner" || stack[2] != "probe" {
		t.Fatalf("stack at probe = %v", stack)
	}
	if it.TopUserFrame() != nil {
		t.Fatalf("stack not empty after run")
	}
}

func TestFrameKey(t *testing.T) {
	f := &Frame{FuncName: "getUrl", Args: []Value{Str("/comments?v=1&p=2"), Bool(false)}}
	if got := f.Key(); got != "getUrl(/comments?v=1&p=2,false)" {
		t.Fatalf("Key = %q", got)
	}
	empty := &Frame{FuncName: "init"}
	if empty.Key() != "init()" {
		t.Fatalf("empty Key = %q", empty.Key())
	}
}

// TestFrameKeyAllocs: the hot-node key of a frame whose arguments are
// all strings — the XHR sender's — costs one allocation.
func TestFrameKeyAllocs(t *testing.T) {
	f := &Frame{FuncName: "getUrlXMLResponseAndFillDiv", Args: []Value{Str("/comments?v=abc&action_get_comments=1&p=2"), Str("recent_comments")}}
	if got := testing.AllocsPerRun(100, func() { _ = f.Key() }); got != 1 {
		t.Fatalf("Key allocates %v times, want 1", got)
	}
}

func TestValueConversions(t *testing.T) {
	if Num(0).ToBool() || Str("").ToBool() || Null().ToBool() || Undefined.ToBool() {
		t.Fatalf("falsy values wrong")
	}
	if !Num(1).ToBool() || !Str("x").ToBool() || !ObjVal(NewObject()).ToBool() {
		t.Fatalf("truthy values wrong")
	}
	if Str(" 42 ").ToNumber() != 42 {
		t.Fatalf("string->number trim failed")
	}
	if Str("").ToNumber() != 0 {
		t.Fatalf("empty string should be 0")
	}
	if !math.IsNaN(Str("abc").ToNumber()) {
		t.Fatalf("junk string should be NaN")
	}
	if Str("0x10").ToNumber() != 16 {
		t.Fatalf("hex string conversion failed")
	}
	if Bool(true).ToNumber() != 1 || Bool(false).ToNumber() != 0 {
		t.Fatalf("bool->number failed")
	}
	if ObjVal(NewArray(Num(1), Num(2))).ToString() != "1,2" {
		t.Fatalf("array toString failed")
	}
}

func TestRunProgramReuse(t *testing.T) {
	it := New()
	if _, err := it.Run("var shared = 10;"); err != nil {
		t.Fatal(err)
	}
	v, err := it.Run("shared + 5")
	if err != nil || v.NumVal() != 15 {
		t.Fatalf("state not preserved across Run calls: %v %v", v, err)
	}
}

func TestInstanceMutationThroughReference(t *testing.T) {
	expectNum(t, `var a = {list: []};
	var ref = a.list;
	ref[0] = 1; ref[1] = 2;
	a.list.length`, 2)
}

func TestDeterministicForInOrder(t *testing.T) {
	// Insertion order must be stable across runs (determinism guarantee).
	for i := 0; i < 5; i++ {
		expectStr(t, `var o = {}; o.z = 1; o.a = 2; o.m = 3;
		var ks = ""; for (var k in o) ks += k; ks`, "zam")
	}
}

func BenchmarkInterpFib(b *testing.B) {
	prog, err := Parse("function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); } fib(15)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := New()
		if _, err := it.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpStringOps(b *testing.B) {
	prog, err := Parse(`var s = ""; for (var i = 0; i < 200; i++) { s += "x"; } s.length`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := New()
		if _, err := it.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLabeledBreak(t *testing.T) {
	expectNum(t, `
	var n = 0;
	outer:
	for (var i = 0; i < 5; i++) {
		for (var j = 0; j < 5; j++) {
			if (i == 1 && j == 1) { break outer; }
			n++;
		}
	}
	n`, 6) // i=0: 5 iterations, i=1: 1 iteration
	// Labeled break from a while inside a for.
	expectNum(t, `
	var n = 0;
	loop:
	for (var i = 0; i < 3; i++) {
		var j = 0;
		while (true) {
			j++;
			if (j > 2) { break loop; }
			n++;
		}
	}
	n`, 2)
	// Labeled break on a non-loop statement (block).
	expectNum(t, `
	var n = 0;
	blk: {
		n = 1;
		break blk;
		n = 2;
	}
	n`, 1)
}

func TestLabeledContinue(t *testing.T) {
	expectNum(t, `
	var n = 0;
	outer:
	for (var i = 0; i < 3; i++) {
		for (var j = 0; j < 3; j++) {
			if (j == 1) { continue outer; }
			n++;
		}
	}
	n`, 3) // one inner iteration per outer pass
	// continue with label on the innermost labeled loop == plain continue.
	expectNum(t, `
	var n = 0;
	self:
	for (var i = 0; i < 4; i++) {
		if (i % 2 == 0) { continue self; }
		n++;
	}
	n`, 2)
}

func TestUnlabeledSignalsStillLocal(t *testing.T) {
	// Inner unlabeled break must not exit the labeled outer loop.
	expectNum(t, `
	var n = 0;
	outer:
	for (var i = 0; i < 3; i++) {
		for (var j = 0; j < 10; j++) {
			if (j == 1) { break; }
			n++;
		}
	}
	n`, 3)
}

func TestLabelIsNotASIVictim(t *testing.T) {
	// `break\nlabel` is a bare break then an expression statement.
	expectNum(t, `
	var outer = 5;
	var n = 0;
	for (var i = 0; i < 3; i++) {
		n++;
		break
		outer;
	}
	n`, 1)
}

func TestLabelLooksLikeTernaryIsNotConfused(t *testing.T) {
	// An identifier followed by ':' only labels in statement position;
	// object literals and ternaries still parse.
	expectNum(t, `var o = {lbl: 7}; o.lbl`, 7)
	expectNum(t, `var x = true ? 1 : 2; x`, 1)
}

func TestInterruptPreemptsRun(t *testing.T) {
	it := New()
	cause := errors.New("crawl deadline passed")
	var polls int
	it.Interrupt = func() error {
		polls++
		if polls > 3 {
			return cause
		}
		return nil
	}
	_, err := it.Run("var i = 0; while (true) { i = i + 1; }")
	var interrupted *Interrupted
	if !errors.As(err, &interrupted) {
		t.Fatalf("want *Interrupted, got %v", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("Interrupted should unwrap to its cause: %v", err)
	}
}

func TestInterruptNotCatchable(t *testing.T) {
	it := New()
	it.Interrupt = func() error { return errors.New("stop") }
	_, err := it.Run("try { while (true) {} } catch (e) { }")
	var interrupted *Interrupted
	if !errors.As(err, &interrupted) {
		t.Fatalf("try/catch must not swallow an interrupt: %v", err)
	}
}

func TestNilInterruptRunsNormally(t *testing.T) {
	it := New()
	v, err := it.Run("1 + 2")
	if err != nil || v.NumVal() != 3 {
		t.Fatalf("v=%v err=%v", v, err)
	}
}
