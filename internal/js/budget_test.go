package js

import (
	"errors"
	"strings"
	"testing"
)

// Page JavaScript must not be able to take the process down. Each script
// below panicked, ran out of memory or ran unbounded before the byte
// budget: now it fails as a script error (catchable) or exhausts the
// budget (not catchable), and the interpreter allocates nothing large.

func wantCaught(t *testing.T, src, msg string) {
	t.Helper()
	v := run(t, `var r = "none"; try { `+src+` } catch (e) { r = e.message || e; } r`)
	if !strings.Contains(v.StrVal(), msg) {
		t.Fatalf("%s: caught %q, want a %q error", src, v.StrVal(), msg)
	}
}

func wantMemory(t *testing.T, src string) {
	t.Helper()
	for _, s := range []string{src, "try { " + src + " } catch (e) {}"} {
		if _, err := New().Run(s); !errors.Is(err, ErrMemory) {
			t.Fatalf("%s: err = %v, want ErrMemory", s, err)
		}
	}
}

func TestArrayNegativeLengthThrows(t *testing.T) {
	wantCaught(t, `var a = []; a.length = -1;`, "invalid array length -1")
}

func TestArrayLengthPast32BitsThrows(t *testing.T) {
	wantCaught(t, `var a = []; a.length = 4294967296;`, "invalid array length")
	wantCaught(t, `var a = []; a.length = 2.5;`, "invalid array length")
}

func TestArrayLengthWriteCharged(t *testing.T) {
	wantMemory(t, `var a = []; a.length = 1e8;`)
}

func TestArrayIndexWriteCharged(t *testing.T) {
	wantMemory(t, `var a = []; a[1e8] = 1;`)
}

func TestStringDoublingCharged(t *testing.T) {
	wantMemory(t, `var s = "x"; for (var i = 0; i < 40; i++) { s += s; }`)
}

func TestByteBudgetResets(t *testing.T) {
	it := New()
	const half = `var a = []; a.length = 1e6;` // ≈ 48 MB of elements
	if _, err := it.Run(half); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Run(half); !errors.Is(err, ErrMemory) {
		t.Fatalf("second run without a reset: err = %v, want ErrMemory", err)
	}
	it.ResetBudget()
	if _, err := it.Run(half); err != nil {
		t.Fatalf("after ResetBudget: %v", err)
	}
}

// TestHostileBuiltinsFailCleanly: the conversions and builtins that
// recurse — array→string and JSON.parse — given cycles, deep nesting or
// output that doubles per level.
func TestHostileBuiltinsFailCleanly(t *testing.T) {
	// A cycle renders as "" instead of recursing until the stack dies.
	expectStr(t, `var a = [1]; a[1] = a; a + "|" + [a, [a]]`, "1,|1,,1,")
	wantCaught(t, `var s = ""; for (var i = 0; i < 1000; i++) s += "["; JSON.parse(s + "1");`, "nested too deeply")
	// Doubling through nesting: the conversion stops at the budget.
	const dag = `var s = "x"; for (var i = 0; i < 12; i++) s += s;
	var o = [s]; for (var i = 0; i < 40; i++) { o = [o, o]; } `
	wantMemory(t, dag+`o + "";`)
}

// TestClosureFreeCallAllocs: a call to a function that creates no closure
// takes its arguments, its scope and its frame from the interpreter's
// stacks, so it allocates nothing.
func TestClosureFreeCallAllocs(t *testing.T) {
	it := New()
	if _, err := it.Run(`function f(a, b, c, d) { var s = a + b; if (c) { s = s + d; } return s; }`); err != nil {
		t.Fatal(err)
	}
	prog, err := Parse(`f(1, 2, true, 4); f(5, 6, false, "unused");`)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		it.ResetBudget()
		if _, err := it.RunProgram(prog); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("a closure-free call allocates %v times, want 0", got)
	}
}

// TestDeepNestingIsASyntaxError: a script whose syntax tree would nest
// deeper than maxNesting fails to parse, whichever way it nests, instead
// of recursing until the goroutine stack overflows — which no recover
// catches. Chains count too: a+b+c and a.b.c nest their left operand.
func TestDeepNestingIsASyntaxError(t *testing.T) {
	const deep = 1 << 14
	// Parens around chains of 300 links: no single construct is deep.
	chained := "1"
	for i := 0; i < 300; i++ {
		chained = "(" + chained + strings.Repeat("+1", 300) + ")"
	}
	for name, src := range map[string]string{
		"reproducer": strings.Repeat("(", 1<<20) + "1" + strings.Repeat(")", 1<<20),
		"blocks":     strings.Repeat("{", deep) + strings.Repeat("}", deep),
		"ifs":        strings.Repeat("if (a) ", deep) + ";",
		"functions":  strings.Repeat("function f() {", deep) + strings.Repeat("}", deep),
		"arrays":     strings.Repeat("[", deep) + strings.Repeat("]", deep),
		"objects":    strings.Repeat("({a:", deep) + "1" + strings.Repeat("})", deep),
		"assignment": strings.Repeat("a = ", deep) + "1",
		"ternary":    strings.Repeat("a ? b : ", deep) + "c",
		"unary":      strings.Repeat("!", deep) + "1",
		"new":        strings.Repeat("new ", deep) + "F",
		"plus":       strings.Repeat("1 + ", deep) + "1",
		"or":         strings.Repeat("a || ", deep) + "b",
		"less":       strings.Repeat("a < ", deep) + "b",
		"members":    "a" + strings.Repeat(".b", deep),
		"calls":      "f" + strings.Repeat("()", deep),
		"index":      strings.Repeat("a[", deep) + "0" + strings.Repeat("]", deep),
		"chained":    chained,
	} {
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nesting") {
			t.Errorf("%s: err = %v, want a nesting syntax error", name, err)
		}
	}
	// Below the limit, deep scripts still parse and run.
	for src, want := range map[string]string{
		strings.Repeat("(", 500) + "1" + strings.Repeat(")", 500):       "1",
		strings.Repeat("1 + ", 450) + "1":                               "451",
		"var o = {v: 7}; o.b = o; o" + strings.Repeat(".b", 450) + ".v": "7",
	} {
		if got := run(t, src); got.ToString() != want {
			t.Errorf("%.40s...: %v, want %s", src, got.ToString(), want)
		}
	}
}
