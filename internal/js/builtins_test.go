package js

import (
	"math"
	"slices"
	"testing"
)

func TestParseIntEdgeCases(t *testing.T) {
	expectNum(t, `parseInt("  42  ")`, 42)
	expectNum(t, `parseInt("+7")`, 7)
	expectNum(t, `parseInt("08")`, 8) // no octal in our subset
	expectNum(t, `parseInt("z", 36)`, 35)
	expectNum(t, `parseInt("11", 2)`, 3)
	expectNum(t, `parseInt("0x10", 16)`, 16)
	expectNum(t, `parseInt("0x1F")`, 31)
	expectNum(t, `parseInt("-0x1F", 0)`, -31)
	// An explicit radix other than 16 leaves the 0x prefix alone.
	expectNum(t, `parseInt("0x1F", 10)`, 0)
	expectNum(t, `parseInt("0x1F", 8)`, 0)
	expectNum(t, `parseInt("12", 10.9)`, 12)
	for _, src := range []string{
		`parseInt("")`, `parseInt("-")`, `parseInt("0x")`,
		// A radix outside 2–36 is NaN, whatever the digits.
		`parseInt("1", 1)`, `parseInt("1", 37)`, `parseInt("1", -2)`, `parseInt("11", 1e300)`,
	} {
		if v := run(t, src); !math.IsNaN(v.num) {
			t.Errorf("%s = %v, want NaN", src, v)
		}
	}
	// Huge values fall back to float accumulation without error.
	v := run(t, `parseInt("99999999999999999999999999")`)
	if v.Kind() != KindNumber || v.num <= 0 {
		t.Fatalf("huge parseInt = %v", v)
	}
}

// TestStringConstructorAndConversions: the String, Number and Boolean
// constructors are gone from the library, so scripts reach ToString,
// ToNumber and ToBoolean through the operators ("" +, unary + and -, !!).
func TestStringConstructorAndConversions(t *testing.T) {
	expectStr(t, `"" + null`, "null")
	expectStr(t, `"" + undefined`, "undefined")
	expectStr(t, `"" + [1,2]`, "1,2")
	expectStr(t, `"" + [null]`, "")
	expectStr(t, `"" + true`, "true")
	expectNum(t, `+""`, 0)
	expectNum(t, `+true`, 1)
	expectNum(t, `+null`, 0)
	expectNum(t, `-"8"`, -8)
	expectBool(t, `var n = +"x"; n !== n`, true)
	expectBool(t, `var n = +undefined; n !== n`, true)
	expectBool(t, `!!0`, false)
	expectBool(t, `!!"0"`, true) // non-empty string is truthy
	expectBool(t, `!!undefined`, false)
	expectBool(t, `!!0 || !!"" || !!undefined || !!null`, false)
	expectBool(t, `!!"0" && !!{} && !![]`, true)
}

// TestEncodeURIComponent: ECMA-262 §15.1.3.4 escapes all but the
// unreserved set, as uppercase %XX over the UTF-8 bytes; a space is %20.
func TestEncodeURIComponent(t *testing.T) {
	expectStr(t, `encodeURIComponent("a b!'()*~é")`, "a%20b!'()*~%C3%A9")
	expectStr(t, `encodeURIComponent("a b/c&d=e?#+%")`, "a%20b%2Fc%26d%3De%3F%23%2B%25")
	expectStr(t, `encodeURIComponent("AZaz09-_.")`, "AZaz09-_.")
	expectStr(t, `encodeURIComponent("\u0000\u007f")`, "%00%7F")
	expectStr(t, `encodeURIComponent()`, "undefined")
}

func TestErrorConstructor(t *testing.T) {
	expectStr(t, `new Error("boom").message`, "boom")
	expectStr(t, `new Error("x").name`, "Error")
	expectStr(t, `new TypeError("t").message`, "t")
	expectStr(t, `new TypeError("t").name`, "TypeError")
	expectStr(t, `TypeError("t").name`, "TypeError")
	expectStr(t, `Error("no new needed").message`, "no new needed")
}

func TestObjectToStringForms(t *testing.T) {
	expectStr(t, `"" + {}`, "[object Object]")
	expectStr(t, `"" + [1,2]`, "1,2")
	expectStr(t, `"" + [null, undefined, 3]`, ",,3")
	expectStr(t, `"" + [[1, [2]], [], 3]`, "1,2,,3")
	v := run(t, `"" + function named() {}`)
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
	expectBool(t, `var a = [1,2,3]; delete a[1]; 1 in a`, true) // array elems are storage, not props
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
	if err != nil || v.num != 5 {
		t.Fatalf("global define: %v %v", v, err)
	}
	// Interp-level access.
	if got, ok := it.globals["g"]; !ok || got.num != 5 {
		t.Fatalf("global g = %v %v", got, ok)
	}
	it.DefineGlobal("injected", Str("hi"))
	v, err = it.Run(`injected + "!"`)
	if err != nil || v.StrVal() != "hi!" {
		t.Fatalf("injected global: %v %v", v, err)
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
		if v, _ := it.globals["result"]; v.StrVal() != tag {
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

// TestLibrarySurface pins the library to the interpreter's contract
// (DESIGN.md "Interpreter contract"): New() defines exactly these globals,
// JSON has parse only, and strings, numbers, booleans, arrays, functions
// and objects expose no methods — strings and arrays only length and
// indices. A call to a name outside it is a catchable TypeError. Adding a
// builtin means changing this test with the contract.
func TestLibrarySurface(t *testing.T) {
	it := New()
	var names []string
	for name := range it.globals {
		names = append(names, name)
	}
	slices.Sort(names)
	want := []string{"Error", "Infinity", "JSON", "NaN", "TypeError", "encodeURIComponent", "parseInt", "undefined"}
	if !slices.Equal(names, want) {
		t.Fatalf("globals = %v, want %v", names, want)
	}
	json, _ := it.globals["JSON"]
	if keys := json.Object().OwnKeys(); !slices.Equal(keys, []string{"parse"}) {
		t.Fatalf("JSON keys = %v, want [parse]", keys)
	}

	expectStr(t, `var s = "abc"; s.length + s[1] + s[2]`, "3bc")
	expectStr(t, `var a = [7, 8]; a.length + "/" + a[1] + "/" + ("length" in a)`, "2/8/true")
	for _, recv := range []string{`"abc"`, `(1)`, `true`, `[1]`, `(function f(x) {})`, `({})`, `new Error("e")`} {
		for _, name := range []string{
			// Object, Function
			"constructor", "toString", "valueOf", "hasOwnProperty", "call", "apply", "bind", "length",
			// Array
			"push", "pop", "shift", "unshift", "join", "slice", "splice", "concat", "indexOf", "sort", "map", "filter", "forEach", "reverse",
			// String, Number
			"charAt", "charCodeAt", "substring", "substr", "split", "replace", "trim", "toLowerCase", "toUpperCase", "lastIndexOf", "toFixed",
		} {
			if (recv == `"abc"` || recv == `[1]`) && name == "length" {
				continue
			}
			if v := run(t, recv+`["`+name+`"]`); !v.IsUndefined() {
				t.Errorf("%s.%s = %v, want undefined", recv, name, v)
			}
		}
	}
	for _, src := range []string{
		`Math.floor(1)`, `JSON.stringify(1)`, `parseFloat("1")`, `isNaN(1)`, `isFinite(1)`,
		`decodeURIComponent("a")`, `String(1)`, `Number("1")`, `Boolean(1)`, `Array(1)`, `Object()`,
	} {
		// A name outside the library is unbound, a method outside it is
		// undefined: either way the call fails its script, and try/catch
		// sees the failure as a TypeError.
		if _, err := New().Run(src); err == nil {
			t.Errorf("%s: ran, want an error", src)
		}
		expectStr(t, `var r; try { `+src+`; } catch (e) { r = e.name; } r`, "TypeError")
	}
	expectStr(t, `var r; try { [1].push(2); } catch (e) { r = e.name + ": " + e.message; } r`,
		"TypeError: object.push is not a function")
}
