package js

import (
	"math"
	"testing"
)

func TestParseIntEdgeCases(t *testing.T) {
	expectNum(t, `parseInt("  42  ")`, 42)
	expectNum(t, `parseInt("+7")`, 7)
	expectNum(t, `parseInt("08")`, 8) // no octal in our subset
	expectNum(t, `parseInt("z", 36)`, 35)
	expectNum(t, `parseInt("11", 2)`, 3)
	expectNum(t, `parseInt("0x10", 16)`, 16)
	expectBool(t, `isNaN(parseInt(""))`, true)
	expectBool(t, `isNaN(parseInt("-"))`, true)
	// Huge values fall back to float accumulation without error.
	v := run(t, `parseInt("99999999999999999999999999")`)
	if v.Kind() != KindNumber || v.NumVal() <= 0 {
		t.Fatalf("huge parseInt = %v", v)
	}
}

func TestParseFloatEdgeCases(t *testing.T) {
	expectNum(t, `parseFloat("3.5")`, 3.5)
	expectNum(t, `parseFloat("-2.5e1")`, -25)
	expectNum(t, `parseFloat("+.5")`, 0.5)
	expectNum(t, `parseFloat("1.2.3")`, 1.2)
	expectNum(t, `parseFloat("7up")`, 7)
	expectBool(t, `isNaN(parseFloat("up7"))`, true)
}

func TestMathEdgeCases(t *testing.T) {
	expectBool(t, `isNaN(Math.max(1, NaN))`, true)
	expectBool(t, `isNaN(Math.min(NaN, 2))`, true)
	expectBool(t, `Math.max() === -Infinity`, true)
	expectBool(t, `Math.min() === Infinity`, true)
	expectBool(t, `isNaN(Math.sqrt(-1))`, true)
	expectNum(t, `Math.abs(0)`, 0)
	expectNum(t, `Math.round(-2.5)`, -2)
	expectNum(t, `Math.floor(-0.5)`, -1)
	v := run(t, `Math.PI`)
	if v.NumVal() != math.Pi {
		t.Fatalf("Math.PI = %v", v)
	}
}

func TestStringConstructorAndConversions(t *testing.T) {
	expectStr(t, `String()`, "")
	expectStr(t, `String(null)`, "null")
	expectStr(t, `String([1,2])`, "1,2")
	expectNum(t, `Number()`, 0)
	expectBool(t, `isNaN(Number("x"))`, true)
	expectNum(t, `Number(true)`, 1)
	expectBool(t, `Boolean(0)`, false)
	expectBool(t, `Boolean("0")`, true) // non-empty string is truthy
	expectBool(t, `Boolean(undefined)`, false)
}

func TestEncodeDecodeURIComponent(t *testing.T) {
	expectStr(t, `decodeURIComponent(encodeURIComponent("a b/c&d=e"))`, "a b/c&d=e")
	// Malformed input throws a catchable error.
	expectStr(t, `var r = "no";
	try { decodeURIComponent("%zz"); } catch (e) { r = "caught"; }
	r`, "caught")
}

func TestErrorConstructor(t *testing.T) {
	expectStr(t, `new Error("boom").message`, "boom")
	expectStr(t, `new Error("x").name`, "Error")
	expectStr(t, `new TypeError("t").message`, "t")
	expectStr(t, `Error("no new needed").message`, "no new needed")
}

func TestStringMethodEdgeCases(t *testing.T) {
	expectStr(t, `"abc".charAt(99)`, "")
	expectStr(t, `"abc".charAt(-1)`, "")
	expectBool(t, `isNaN("abc".charCodeAt(99))`, true)
	expectNum(t, `"aXbXc".lastIndexOf("X")`, 3)
	expectNum(t, `"abc".lastIndexOf("z")`, -1)
	expectStr(t, `"hello".substring(2)`, "llo")
	expectStr(t, `"hello".substr(-3)`, "llo")
	expectStr(t, `"hello".substr(2, 99)`, "llo")
	expectStr(t, `"hello".substr(0, -1)`, "")
	expectStr(t, `"hello".slice(1, -1)`, "ell")
	expectStr(t, `"hello".slice(4, 1)`, "")
	expectNum(t, `"".split(",").length`, 1)
	expectStr(t, `"abc".toString()`, "abc")
	expectStr(t, `(42).toString()`, "42")
	// String method on a number via coercion (this is ToString'd).
	expectStr(t, `"x".concat(1, null)`, "x1null")
}

func TestObjectToStringForms(t *testing.T) {
	expectStr(t, `({}).toString()`, "[object Object]")
	expectStr(t, `[1,2].toString()`, "1,2")
	expectStr(t, `[null, undefined, 3].toString()`, ",,3")
	v := run(t, `(function named() {}).toString()`)
	if v.Kind() != KindString || v.StrVal() == "" {
		t.Fatalf("function toString = %v", v)
	}
}

func TestForInOverArrayAndString(t *testing.T) {
	expectStr(t, `var s = ""; for (var i in "ab") s += i; s`, "01")
	expectStr(t, `var o = {x: 1}; var out = "";
	for (var k in o) { delete o.x; out += k; } out`, "x")
	// for-in over non-object is a no-op.
	expectNum(t, `var n = 0; for (var k in null) n++; for (var k2 in 5) n++; n`, 0)
}

func TestDeleteSemantics(t *testing.T) {
	expectBool(t, `var o = {a: 1}; delete o.a`, true)
	expectBool(t, `delete someUnboundName`, false)
	expectBool(t, `var a = [1,2,3]; delete a[1]; a.hasOwnProperty(1)`, true) // array elems are storage, not props
	expectBool(t, `delete null`, false)
}

func TestInstanceofAndInErrors(t *testing.T) {
	it := New()
	if _, err := it.Run(`1 instanceof 2`); err == nil {
		t.Fatalf("instanceof non-function should error")
	}
	if _, err := it.Run(`"k" in 5`); err == nil {
		t.Fatalf("in on non-object should error")
	}
	expectBool(t, `"length" in [1]`, true)
	expectBool(t, `"0" in [9]`, true)
	expectBool(t, `"1" in [9]`, false)
}

func TestSeqAndVoidInStatements(t *testing.T) {
	expectNum(t, `var x = (1, 2); x`, 2)
	expectNum(t, `for (var i = 0, j = 10; i < j; i++, j--) {} i`, 5)
}

func TestPrototypeInheritanceChain(t *testing.T) {
	expectNum(t, `
	function Base() {}
	Base.prototype.get = function() { return 10; };
	function Derived() {}
	Derived.prototype = new Base();
	var d = new Derived();
	d.get()`, 10)
	expectBool(t, `
	function Base() {}
	function Derived() {}
	Derived.prototype = new Base();
	new Derived() instanceof Base`, true)
}

func TestArgumentsIsolation(t *testing.T) {
	// Each call gets its own arguments object.
	expectNum(t, `
	function f(x) {
		if (x > 0) { return f(x - 1) + arguments.length; }
		return 0;
	}
	f(3)`, 3)
}

func TestGlobalThisWritethrough(t *testing.T) {
	it := New()
	v, err := it.Run(`var g = 5; g`)
	if err != nil || v.NumVal() != 5 {
		t.Fatalf("global define: %v %v", v, err)
	}
	// Interp-level access.
	if got, ok := it.LookupGlobal("g"); !ok || got.NumVal() != 5 {
		t.Fatalf("LookupGlobal = %v %v", got, ok)
	}
	it.DefineGlobal("injected", Str("hi"))
	v, err = it.Run(`injected + "!"`)
	if err != nil || v.StrVal() != "hi!" {
		t.Fatalf("injected global: %v %v", v, err)
	}
}

func TestObjectInspect(t *testing.T) {
	o := NewObject()
	o.SetProp("b", Num(2))
	o.SetProp("a", Str("x"))
	if got := o.Inspect(); got != `{a: "x", b: 2}` {
		t.Fatalf("Inspect = %q", got)
	}
	arr := NewArray(Num(1), Num(2))
	if got := arr.Inspect(); got != "[1,2]" {
		t.Fatalf("array Inspect = %q", got)
	}
}

func TestValueStringer(t *testing.T) {
	if Str("x").String() != `"x"` {
		t.Fatalf("string Value stringer")
	}
	if Num(3).String() != "3" || Bool(true).String() != "true" {
		t.Fatalf("primitive stringers")
	}
	if Undefined.String() != "undefined" || Null().String() != "null" {
		t.Fatalf("nil-ish stringers")
	}
}

func TestCompileFunctionThisBinding(t *testing.T) {
	it := New()
	prog, err := ParseFunction(`result = this.tag;`)
	if err != nil {
		t.Fatal(err)
	}
	// One parse, two dispatches with different receivers.
	for _, tag := range []string{"elem", "other"} {
		o := NewObject()
		o.SetProp("tag", Str(tag))
		if _, err := it.Call(it.CompileFunction("handler", prog), ObjVal(o), nil); err != nil {
			t.Fatal(err)
		}
		if v, _ := it.LookupGlobal("result"); v.StrVal() != tag {
			t.Fatalf("this binding in compiled handler: %v, want %s", v, tag)
		}
	}
}

func TestSwitchOnStrings(t *testing.T) {
	expectStr(t, `
	function route(e) {
		switch (e) {
		case "onclick": return "click";
		case "onmouseover": return "hover";
		default: return "other";
		}
	}
	route("onclick") + "/" + route("onmouseover") + "/" + route("onload")`,
		"click/hover/other")
}

func TestWhileWithComplexConditions(t *testing.T) {
	expectNum(t, `
	var i = 0, found = -1;
	var xs = [4, 8, 15, 16, 23, 42];
	while (i < xs.length && found < 0) {
		if (xs[i] % 2 == 1) { found = i; }
		i++;
	}
	found`, 2)
}
