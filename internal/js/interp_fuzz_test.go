package js

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ajaxcrawl/internal/webapp"
)

// interpSeeds cover what name resolution must get right: every way a
// name is bound (parameter, var, function, catch, arguments, this, a
// function's own name, implicit global) and captured (closures at depth
// 1 and 2, over loop variables), functions passed around as values, and
// the errors a call outside the library's contract raises.
var interpSeeds = []string{
	`var fs = []; for (var i = 0; i < 3; i++) { fs[i] = function () { return i; }; }
	var gs = []; for (var j = 0; j < 3; j++) { gs[gs.length] = (function (k) { return function () { return k; }; })(j); }
	fs[0]() + "," + gs[0]() + gs[2]();`,
	`function a(x) { var w = 1; return function (y) { return function (z) { w++; return x + y + z + w; }; }; }
	var c = a(1)(2); c(3) + c(3);`,
	`function f() { var e = 1; try { throw 2; } catch (e) { e = e + 10; var e = 5; } return e; }
	function g(a) { var a; return a; } function h(a, a) { var a = a + 1; return a; }
	function extra(a) { var b; return typeof b + a; }
	[f(), g(7), h(1, 2), h(1), extra(1, 2, 3)] + "";`,
	`var fact = function f(n) { return n <= 1 ? 1 : n * f(n - 1); }; var f = 0;
	function named() { named = 1; return typeof named; } var n2 = named;
	function args(a) { arguments[0] = 9; var s = a + arguments.length; return s + arguments[0]; }
	function shadow(arguments) { return arguments; }
	[fact(5), f, n2(), typeof named, args(1, 2), shadow(3)] + "";`,
	`function m() { zz = 3; for (var kk in {p: 1}) { yy = kk; } } m(); zz + yy;`,
	`var o = {v: 1, f: function () { function inner() { return this; } var self = this;
	var g = {v: 10, h: function () { return self.v + this.v; }};
	return [this.v, typeof inner(), g.h()]; }};
	o.f() + "";`,
	`function add(a, b) { return this.base + a + b; }
	function via(fn, self, a, b) { self.fn = fn; return self.fn(a, b); }
	function each(xs, fn) { var out = []; for (var i = 0; i < xs.length; i++) { out[i] = fn(xs[i], i); } return out; }
	via(add, {base: 1}, 2, 3) + via(add, {base: 10}, 20, 30) + each([3, 1, 2], function (x, i) { return x * i; });`,
	`function f(a, b, c) { return a + b + c; } var a = [1, 2, 3]; f(7, 8, 9); var b = []; b.length = 2; a[0] + "/" + b.length + "/" + f(1, 2);`,
	`function outer() { try { return "t"; } finally { inner(); } } function inner() { return "i"; }
	function loop() { for (var i = 0; ; i++) { try { if (i == 2) return i; } finally { continue; } } }
	outer() + loop();`,
	`function r(n) { return n ? r(n - 1) : this; } r(3) === this;`,
	`var s = "ab"; for (var i = 0; i < 40; i++) { s += s; } s.length;`,
	`var a = []; a.length = 1e8; a.length;`,
	`var a = []; a[1e8] = 1;`,
	`var r = [], bad = [-1, 1.5, 4294967296, NaN];
	for (var i in bad) { try { var x = []; x.length = bad[i]; } catch (e) { r[r.length] = e.message; } }
	try { r.length = -1; } catch (e) { r[r.length] = e.name + ": " + e.message; }
	try { [1].push(2); } catch (e) { r[r.length] = e.name + ": " + e.message; }
	try { "s".charAt(0); } catch (e) { r[r.length] = e.name + ": " + e.message; }
	r + "|";`,
	`var a = [1]; a[1] = a; a + "|" + [a, [a]];`,
	`loadCommentPage('v0017', 3); return false;`,
}

// siteScripts returns the <script> of a watch page and of a news
// article, each followed by calls into it.
func siteScripts(t testing.TB) []string {
	script := func(page string) string {
		_, rest, _ := strings.Cut(page, `<script type="text/javascript">`)
		code, _, _ := strings.Cut(rest, "</script>")
		return code
	}
	site := webapp.New(webapp.DefaultConfig(4, 17))
	watch := script(site.RenderWatchPage(site.Video(0)))
	rec := httptest.NewRecorder()
	webapp.NewNews(webapp.NewsConfig{Articles: 2, Seed: 17}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/article?id=1", nil))
	news := script(rec.Body.String())
	if watch == "" || news == "" {
		t.Fatal("a site page carries no script")
	}
	return []string{
		watch + "\ninitPage(); loadCommentPage('v0017', 2); likeVideo('v0017'); suggest(''); suggest('ab'); trackCount",
		news + "\nexpandSection(1, 2); loadReactions(1);",
	}
}

// newFuzzInterp returns an interpreter with the few host objects the
// sites' scripts touch: getElementById answers a fresh plain element, an
// XMLHttpRequest answers every send with one fragment.
func newFuzzInterp() *Interp {
	it := New()
	it.MaxSteps = 100_000
	native := func(name string, fn NativeFunc) Value { return ObjVal(NewNative(name, fn)) }
	noop := func(*Interp, Value, []Value) (Value, error) { return Undefined, nil }
	doc := NewObject()
	doc.SetProp("getElementById", native("getElementById", func(_ *Interp, _ Value, args []Value) (Value, error) {
		el := NewObject()
		el.SetProp("id", Str(arg(args, 0).ToString()))
		el.SetProp("style", ObjVal(NewObject()))
		return ObjVal(el), nil
	}))
	it.DefineGlobal("document", ObjVal(doc))
	it.DefineGlobal("XMLHttpRequest", native("XMLHttpRequest", func(*Interp, Value, []Value) (Value, error) {
		x := NewObject()
		x.SetProp("open", native("open", noop))
		x.SetProp("send", native("send", noop))
		x.SetProp("responseText", Str("<p>fragment</p>"))
		return ObjVal(x), nil
	}))
	return it
}

// interpOutcome is what FuzzInterp compares: the result's kind and
// string, the error's type and message, the steps taken, and every
// global's string afterwards.
type interpOutcome struct {
	kind    Kind
	value   string
	err     string
	steps   int
	globals string
}

func outcome(t *testing.T, it *Interp, v Value, err error) interpOutcome {
	t.Helper()
	if it.steps > it.MaxSteps+1 || it.bytes > maxBytes {
		t.Fatalf("ran past its budgets: %d steps, %d bytes", it.steps, it.bytes)
	}
	out := interpOutcome{kind: v.Kind(), value: v.ToString(), steps: it.steps}
	if err != nil {
		out.err = fmt.Sprintf("%T: %v", err, err)
		// A stray break or continue escapes a handler as the signal of
		// whichever evaluator ran it.
		out.err = strings.NewReplacer("refBreak", "breakSignal", "refContinue", "continueSignal").Replace(out.err)
	}
	var globals []string
	for name, v := range it.globals {
		globals = append(globals, name+"="+v.ToString())
	}
	slices.Sort(globals)
	out.globals = strings.Join(globals, "\n")
	it.ResetBudget()
	return out
}

// checkInterp runs src as a script and then as a handler body on the
// resolved evaluator and on the reference one; the two must agree. The
// resolved evaluator must also agree with itself on a private parse of
// src, the one the reference never read.
func checkInterp(t *testing.T, src string) {
	script, err := Parse(src)
	if err != nil {
		return
	}
	handler, err := ParseFunction(src)
	if err != nil {
		t.Fatalf("Parse accepts the source, ParseFunction fails: %v", err)
	}
	resolved := func(script, handler *Program) [2]interpOutcome {
		it := newFuzzInterp()
		receiver := ObjVal(NewObject())
		v, err := it.RunProgram(script)
		ran := outcome(t, it, v, err)
		v, err = it.Call(it.CompileFunction("onclick", handler), receiver, nil)
		return [2]interpOutcome{ran, outcome(t, it, v, err)}
	}
	it := newFuzzInterp()
	ref := newRefInterp(it)
	receiver := ObjVal(NewObject())
	v, err := ref.run(script)
	ran := outcome(t, it, v, err)
	v, err = it.Call(ref.compile("onclick", handler), receiver, nil)
	want := [2]interpOutcome{ran, outcome(t, it, v, err)}

	if got := resolved(script, handler); got != want {
		t.Fatalf("resolved evaluator\n got %+v\nwant %+v (reference)", got, want)
	}
	script, _ = Parse(src)
	handler, _ = ParseFunction(src)
	if got := resolved(script, handler); got != want {
		t.Fatalf("private parse\n got %+v\nwant %+v", got, want)
	}
}

func TestInterpMatchesReference(t *testing.T) {
	for _, src := range append(append(interpSeeds, sharedScripts...), siteScripts(t)...) {
		checkInterp(t, src)
	}
}

func FuzzInterp(f *testing.F) {
	for _, src := range append(append(interpSeeds, sharedScripts...), siteScripts(f)...) {
		f.Add(src)
	}
	// 600 levels, past maxNesting: a syntax error, not a stack overflow.
	f.Add(strings.Repeat("(", 600) + "1" + strings.Repeat(")", 600))
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			t.Skip()
		}
		checkInterp(t, src)
	})
}
