package js

import (
	"sync"
	"testing"
)

// sharedScripts exercise every statement and expression kind the
// evaluator walks, so a run that wrote to its AST would be caught.
var sharedScripts = []string{
	`var total = 0;
	function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
	function Counter(start) { this.n = start; }
	Counter.prototype.inc = function () { this.n++; return this; };
	var c = new Counter(3).inc().inc();
	var o = {a: 1, b: [1, 2, 3], s: "x"};
	for (var k in o) { total += k.length; }
	outer: for (var i = 0; i < 5; i++) {
		switch (i % 3) {
		case 0: total += fib(i + 5); break;
		case 1: continue outer;
		default: total -= 1;
		}
		do { total += o.b[i % 3]; } while (false);
	}
	try { null.x; } catch (e) { total += 100; } finally { total *= 2; }
	var s = typeof total + "," + (total, c.n) + "," + o.b + "," + ("a" in o) + "," + -~total;
	s;`,
	`var hits = [];
	function loadCommentPage(v, p) { hits[hits.length] = v + ":" + p; return hits.length; }
	loadCommentPage('v', 3); loadCommentPage('w', 4 << 1 | 1);
	hits + "|" + (function () { return arguments.length; })(1, 2, 3);`,
	`var x = 1; x += 2; x *= x--; throw {code: x};`,
	`undefinedFunction(1);`,
}

// checkSharedProgram parses src once as a script and once as a handler
// body and runs those two Programs on two fresh interpreters from two
// goroutines. Every result must equal what private parses give; run under
// -race this pins that execution only ever reads the AST, which is what
// lets the browser's program caches hand one parse to every dispatch and
// every page.
func checkSharedProgram(t *testing.T, src string) {
	t.Helper()
	type outcome struct{ run, call string }
	type programs struct{ script, handler *Program }
	exec := func(p programs) outcome {
		show := func(v Value, err error) string {
			if err != nil {
				return "error: " + err.Error()
			}
			return v.String()
		}
		it := New()
		it.MaxSteps = 100_000
		var out outcome
		out.run = show(it.RunProgram(p.script))
		it.ResetBudget()
		out.call = show(it.Call(it.CompileFunction("onclick", p.handler), it.GlobalThis, nil))
		return out
	}
	parse := func() (programs, error) {
		script, err := Parse(src)
		if err != nil {
			return programs{}, err
		}
		handler, err := ParseFunction(src)
		return programs{script, handler}, err
	}

	shared, err := parse()
	if err != nil {
		return // nothing to share
	}
	var got [2]outcome
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = exec(shared)
		}()
	}
	wg.Wait()

	private, err := parse()
	if err != nil {
		t.Fatalf("second parse failed: %v", err)
	}
	want := exec(private)
	for i, g := range got {
		if g != want {
			t.Errorf("shared run %d = %+v, private parse gives %+v", i, g, want)
		}
	}
}

func TestSharedProgramAcrossInterps(t *testing.T) {
	for _, src := range sharedScripts {
		for round := 0; round < 20; round++ {
			checkSharedProgram(t, src)
		}
	}
}

func FuzzSharedProgram(f *testing.F) {
	for _, src := range sharedScripts {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			t.Skip()
		}
		checkSharedProgram(t, src)
	})
}
