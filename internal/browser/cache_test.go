package browser

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/js"
)

// blankPage loads a page with three empty, identified divs and nothing
// else for handlers to trip over.
func blankPage(t testing.TB) *Page {
	t.Helper()
	body := []byte(`<html><body><div id="a"></div><div id="b"></div><div id="c"></div></body></html>`)
	p := NewPage(fetch.Func(func(context.Context, string) (*fetch.Response, error) {
		return &fetch.Response{Status: 200, Body: body, ContentType: "text/html"}, nil
	}))
	if err := p.Load(context.Background(), "/blank"); err != nil {
		t.Fatal(err)
	}
	return p
}

// rebuild copies a tree through the public API: the copy has never been
// hashed, so its digest owes nothing to anybody's cache.
func rebuild(n *dom.Node) *dom.Node {
	c := &dom.Node{Type: n.Type, Data: n.Data, Attr: append([]dom.Attribute(nil), n.Attr...)}
	for k := n.FirstChild; k != nil; k = k.NextSibling {
		c.AppendChild(rebuild(k))
	}
	return c
}

// checkInnerHTMLCache writes src to innerHTML through the page's script
// binding — a miss, then hits — and holds every write to a reference
// parsed by html.ParseFragment that was never hashed and never cached.
func checkInnerHTMLCache(t *testing.T, src string) {
	p := blankPage(t)
	p.Interp.DefineGlobal("src", js.Str(src))
	// Each target is looked up before any write: a written fragment may
	// carry an id that shadows a later target's.
	if _, err := p.Interp.Run(`var a = document.getElementById("a"); var b = document.getElementById("b"); var c = document.getElementById("c");`); err != nil {
		t.Fatal(err)
	}
	write := func(id string) *dom.Node {
		t.Helper()
		if _, err := p.Interp.Run(id + `.innerHTML = src;`); err != nil {
			t.Fatalf("write to #%s: %v", id, err)
		}
		v, _ := p.Interp.LookupGlobal(id)
		return p.unwrapElement(v)
	}
	reference := func(id string) *dom.Node {
		ref := dom.NewElement("div", "id", id)
		ref.AppendChildren(html.ParseFragment(src))
		return ref
	}
	same := func(what string, got, want *dom.Node) {
		t.Helper()
		if g, w := dom.OuterHTML(got), dom.OuterHTML(want); g != w {
			t.Fatalf("%s: OuterHTML %q, uncached parse gives %q", what, g, w)
		}
		if dom.CanonicalHash(got) != dom.CanonicalHash(want) {
			t.Fatalf("%s: digest differs from the uncached parse's", what)
		}
	}

	a := write("a") // miss
	if len(src) <= maxFragmentBytes && len(p.fragments.parsed) != 1 {
		t.Fatalf("after one write the cache holds %d sources", len(p.fragments.parsed))
	}
	same("first write", a, reference("a"))
	p.Hash()
	b := write("b") // hit
	if len(p.fragments.parsed) > 1 {
		t.Fatalf("a repeated source was parsed again")
	}
	same("second write", b, reference("b"))

	// Scribble over the first write's subtree; the second write and the
	// cached holder must not share a node or an attribute slab with it.
	if el := a.FirstChild; el != nil {
		for ; el != nil && el.Type != dom.ElementNode; el = el.NextSibling {
		}
		if el != nil {
			for _, at := range el.Attr {
				el.SetAttr(at.Key, at.Val+"!")
			}
			el.SetAttr("data-scribble", "1")
			el.AppendChild(dom.NewText("scribble"))
			p.setInnerHTML(el, "<i>nested</i>"+src)
		}
		a.AppendChild(dom.NewElement("hr"))
		a.RemoveChild(a.FirstChild)
	}
	same("second write after mutating the first", b, reference("b"))
	same("third write", write("c"), reference("c"))

	// The document's incrementally maintained digest is the digest of
	// the document.
	if p.Hash() != dom.CanonicalHash(rebuild(p.Doc)) {
		t.Fatalf("cached document digest differs from a fresh rebuild's")
	}
}

var innerHTMLSeeds = []string{
	"",
	"plain text",
	`page 2 content <span onclick="loadPage(21)" id="next">next</span>`,
	`<ul class="comments"><li id=c1 class="comment odd">wow <b>great</b></li><li id=c2>funny dance</li></ul><!-- ad -->`,
	`<p>a<b></b></p><p>a&#1;b&#4;</p><a x=1 x=2 X=1>t</a><br/ ><script>var s = "<i>";</script>`,
	"<td>stray cell<tr><li>unclosed <div id=a>shadowing id",
	"  \n\t ",
}

func TestInnerHTMLCache(t *testing.T) {
	for _, src := range innerHTMLSeeds {
		checkInnerHTMLCache(t, src)
	}
}

func FuzzInnerHTMLCache(f *testing.F) {
	for _, src := range innerHTMLSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip()
		}
		checkInnerHTMLCache(t, src)
	})
}

// TestFragmentCacheIsBounded: a handler that never writes the same
// string twice fills the cache to its bound, not beyond, and still ends
// on the DOM an uncached write produces.
func TestFragmentCacheIsBounded(t *testing.T) {
	p := blankPage(t)
	pad := "<p>" + strings.Repeat("x", 1024-len("<p></p>")) + "</p>"
	p.Interp.DefineGlobal("pad", js.Str(pad))
	const writes = 10_000
	ev := Event{Type: "onclick", Path: p.Doc.ElementByID("a").Path(), Code: fmt.Sprintf(
		`for (var i = 0; i < %d; i++) { this.innerHTML = pad + i; }`, writes)}
	changed, err := p.Trigger(context.Background(), ev)
	if err != nil || !changed {
		t.Fatalf("changed=%v err=%v", changed, err)
	}
	if p.fragments.bytes > maxFragmentBytes || len(p.fragments.parsed) > maxFragmentBytes/len(pad) {
		t.Fatalf("cache retains %d bytes in %d sources, bound %d", p.fragments.bytes, len(p.fragments.parsed), maxFragmentBytes)
	}
	if writes*len(pad) <= maxFragmentBytes {
		t.Fatalf("the test never overflows the cache")
	}
	want := dom.NewElement("div", "id", "a")
	html.SetInnerHTML(want, fmt.Sprint(pad, writes-1))
	if got := p.Doc.ElementByID("a"); dom.OuterHTML(got) != dom.OuterHTML(want) || dom.CanonicalHash(got) != dom.CanonicalHash(want) {
		t.Fatalf("final DOM differs from the uncached write's")
	}

	// One oversize source is used but never retained.
	huge := strings.Repeat("y", maxFragmentBytes+1)
	before := p.fragments.bytes
	p.setInnerHTML(p.Doc.ElementByID("b"), huge)
	if p.fragments.bytes != before || p.Doc.ElementByID("b").TextContent() != huge {
		t.Fatalf("oversize source: retained bytes %d → %d", before, p.fragments.bytes)
	}
}

// TestHandlerCacheIsBounded: the same for handler sources.
func TestHandlerCacheIsBounded(t *testing.T) {
	p := blankPage(t)
	path := p.Doc.ElementByID("a").Path()
	const dispatches = 10_000
	total := 0
	for i := 0; i < dispatches; i++ {
		code := fmt.Sprintf(`document.getElementById("b").innerHTML = "<b>dispatch %d</b>";`, i)
		total += len(code)
		if _, err := p.Trigger(context.Background(), Event{Type: "onclick", Path: path, Code: code}); err != nil {
			t.Fatal(err)
		}
		if got := p.handlers.progs.bytes; got > maxProgramBytes {
			t.Fatalf("after %d dispatches the cache retains %d source bytes, bound %d", i+1, got, maxProgramBytes)
		}
	}
	if total <= maxProgramBytes || len(p.handlers.progs.parsed) == dispatches {
		t.Fatalf("the test never overflows the cache (%d source bytes)", total)
	}
	if got, want := dom.InnerHTML(p.Doc.ElementByID("b")), fmt.Sprintf("<b>dispatch %d</b>", dispatches-1); got != want {
		t.Fatalf("final DOM %q, want %q", got, want)
	}
}

// TestHandlerParsedOncePerPage: repeated dispatches of one source share
// one parse; a source that does not parse fails every dispatch alike.
func TestHandlerParsedOncePerPage(t *testing.T) {
	p := blankPage(t)
	ctx := context.Background()
	ev := Event{Type: "onclick", Path: p.Doc.ElementByID("a").Path(), Code: `this.innerHTML = "<i>hit</i>";`}
	for i := 0; i < 3; i++ {
		if _, err := p.Trigger(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(p.handlers.progs.parsed); n != 1 {
		t.Fatalf("3 dispatches of one source left %d programs", n)
	}
	ev.Code = "if ("
	for i := 0; i < 3; i++ {
		if _, err := p.Trigger(ctx, ev); err == nil {
			t.Fatalf("dispatch %d of an unparsable handler succeeded", i)
		}
	}
	if n := len(p.handlers.progs.parsed); n != 1 {
		t.Fatalf("an unparsable source was cached (%d programs)", n)
	}
}

// TestScriptCacheSharedAcrossPages: pages handed one ProgramCache parse
// their common <script> once and still get independent script state; a
// page on its own (NewPage's private cache) behaves the same.
func TestScriptCacheSharedAcrossPages(t *testing.T) {
	f := &fetch.HandlerFetcher{Handler: testSite()}
	var shared ProgramCache
	load := func(scripts *ProgramCache) *Page {
		t.Helper()
		p := NewPage(f)
		if scripts != nil {
			p.Scripts = scripts
		}
		if err := p.Load(context.Background(), "/watch?v=x"); err != nil {
			t.Fatal(err)
		}
		if err := p.RunOnLoad(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1, p2, alone := load(&shared), load(&shared), load(nil)
	if n := len(shared.progs.parsed); n != 1 {
		t.Fatalf("two loads of one page left %d programs in the shared cache", n)
	}
	if _, err := p1.Interp.Run(`initialized = "p1 only";`); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Page{p2, alone} {
		if v, _ := p.Interp.LookupGlobal("initialized"); !v.BoolVal() {
			t.Fatalf("script state leaked between pages: initialized = %v", v)
		}
		if _, err := p.Trigger(context.Background(), p.Events(nil)[0]); err != nil {
			t.Fatal(err)
		}
	}
	if p2.Hash() != alone.Hash() {
		t.Fatalf("a page behind a shared script cache diverged from one with a private cache")
	}
}

// TestHostMethodIdentity: reading a host method twice yields the same
// function object, as it does in a browser.
func TestHostMethodIdentity(t *testing.T) {
	p := loadTestPage(t)
	for _, expr := range []string{
		`document.getElementById === document.getElementById`,
		`document.createElement === document.createElement`,
		`var x = new XMLHttpRequest(); x.open === x.open && x.send === x.send && x.abort === x.abort`,
		`var el = document.getElementById("content"); el.getAttribute === el.getAttribute`,
		`el.appendChild === document.body.appendChild`,
		`"setAttribute" in el && "open" in x && !("open" in el)`,
	} {
		if v, err := p.Interp.Run(expr); err != nil || !v.BoolVal() {
			t.Errorf("%s = %v, %v; want true", expr, v, err)
		}
	}
	// A method torn off its object fails as a script error, not a panic.
	for _, src := range []string{`var send = x.send; send(null);`, `var get = el.getAttribute; get("id");`} {
		if _, err := p.Interp.Run(src); err == nil {
			t.Errorf("%s: want an error", src)
		}
	}
	if v, err := p.Interp.Run(`var r = "no"; try { get("id"); } catch (e) { r = "caught"; } r`); err != nil || v.StrVal() != "caught" {
		t.Errorf("a bad receiver should be catchable: %v %v", v, err)
	}
}

// TestEventLoopAllocs holds the event loop's allocations at what they
// were once rollback relinked the nodes an event displaced instead of
// copying them from the snapshot: 196 allocations and about 158 KB per
// state expansion of this page (204 and 192 KB with the copy; 488
// allocations before calls ran on the interpreter's stacks and the tree
// builder carved nodes from slabs, 1 325 before host methods, handler
// programs and innerHTML fragments were built once). The byte ceiling
// leaves 1 % for the race detector.
func TestEventLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for a second")
	}
	res := testing.Benchmark(BenchmarkEventLoop)
	if got := res.AllocsPerOp(); got > 196 {
		t.Fatalf("BenchmarkEventLoop: %d allocs/op, want ≤ 196", got)
	}
	if got := res.AllocedBytesPerOp(); got > 160_000 {
		t.Fatalf("BenchmarkEventLoop: %d B/op, want ≤ 160 000", got)
	}
}

// TestProgramCacheConcurrent: several goroutines share one cache (as
// process lines would, were a crawler ever shared), through overflows.
func TestProgramCacheConcurrent(t *testing.T) {
	var c ProgramCache
	pad := strings.Repeat(" ", maxProgramBytes/8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				src := fmt.Sprintf("var v = %d;%s", i%12, pad)
				prog, err := c.Program(src)
				if err != nil || len(prog.Stmts) != 1 {
					t.Errorf("Program(%d): %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.progs.bytes > maxProgramBytes {
		t.Fatalf("retained %d source bytes, bound %d", c.progs.bytes, maxProgramBytes)
	}
}
