package browser

import (
	"context"
	"fmt"
	"runtime"
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
// binding — a miss, then hits, then writes after a rollback that reattach
// the nodes the rollback cut loose — and holds every write to a reference
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
		v, _ := global(p, id)
		return p.unwrapElement(v)
	}
	reference := func(id string) *dom.Node {
		ref := dom.NewElement("div", "id", id)
		ref.AdoptChildren(html.ParseFragment(src))
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

	// Rollback: the next write reattaches the nodes a Restore cut loose,
	// and never a copy scribbled on since. #a precedes anything written
	// into it, so getElementById finds it whatever src holds.
	q := blankPage(t)
	q.Interp.DefineGlobal("src", js.Str(src))
	snap := q.Snapshot()
	rewrite := func(what string) *dom.Node {
		t.Helper()
		q.Restore(snap)
		if _, err := q.Interp.Run(`document.getElementById("a").innerHTML = src;`); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got := q.Doc.ElementByID("a")
		same(what, got, reference("a"))
		return got
	}
	cut := rewrite("write before a rollback").FirstChild
	if got := rewrite("write after a rollback").FirstChild; got != cut {
		t.Fatalf("the write after a rollback took a fresh copy")
	}
	if cut != nil {
		q.Restore(snap)
		deep := cut
		for deep.FirstChild != nil {
			deep = deep.FirstChild
		}
		deep.SetAttr("data-scribble", "1")
		if got := rewrite("write after scribbling on a cut-loose copy").FirstChild; got == cut {
			t.Fatalf("a write reattached a copy edited since it was cut loose")
		}
	}
	if q.Hash() != dom.CanonicalHash(rebuild(q.Doc)) {
		t.Fatalf("after the rollback writes the cached document digest differs from a fresh rebuild's")
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

// TestKeptHandleIsNeverReattached: a write never reattaches a copy a
// script holds a handle into. Each write makes fresh nodes, as in a
// browser, so writing through the handle kept from an earlier event
// changes a detached node and #a keeps what two() wrote.
func TestKeptHandleIsNeverReattached(t *testing.T) {
	p := blankPage(t)
	if _, err := p.Interp.Run(`var kept = null;
function one() { document.getElementById("a").innerHTML = '<b id="x">x</b>'; kept = document.getElementById("x"); }
function two() { document.getElementById("a").innerHTML = '<b id="x">x</b>'; kept.innerHTML = "stale"; }`); err != nil {
		t.Fatal(err)
	}
	path := p.Doc.ElementByID("c").Path()
	snap := p.Snapshot()
	for i, code := range []string{"one()", "two()", "two()", "two()"} {
		p.Restore(snap)
		if _, err := p.Trigger(context.Background(), Event{Type: "onclick", Path: path, Code: code}); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got := p.Doc.ElementByID("a").TextContent(); got != "x" {
			t.Fatalf("event %d (%s): #a reads %q, want \"x\"", i, code, got)
		}
	}
}

// TestWriteAfterRollbackReusesNodes: with no handle kept, a write after a
// Restore — to the state it left or to another one — reattaches the
// nodes the previous write of the source inserted, and allocates nothing.
func TestWriteAfterRollbackReusesNodes(t *testing.T) {
	p := blankPage(t)
	const src = `<ul class="comments"><li id=c1>wow <b>great</b></li><li id=c2>funny dance</li></ul> tail`
	s0 := p.Snapshot()
	p.Doc.ElementByID("b").SetAttr("class", "other")
	s1 := p.Snapshot()
	p.Restore(s0)
	p.setInnerHTML(p.Doc.ElementByID("a"), src)
	first := p.Doc.ElementByID("a").FirstChild
	p.Restore(s1) // another state's snapshot: a whole clone
	a := p.Doc.ElementByID("a")
	p.setInnerHTML(a, src)
	if a.FirstChild != first {
		t.Fatalf("the write after a Restore to another state took a fresh copy")
	}
	if n := testing.AllocsPerRun(10, func() {
		p.Restore(s1)
		p.setInnerHTML(a, src)
	}); n != 0 {
		t.Fatalf("Restore and a repeated write allocate %v times, want 0", n)
	}
	want := dom.NewElement("div", "id", "a")
	html.SetInnerHTML(want, src)
	if a.FirstChild != first || dom.OuterHTML(a) != dom.OuterHTML(want) || p.Hash() != dom.CanonicalHash(rebuild(p.Doc)) {
		t.Fatalf("after the repeated writes #a is %s", dom.OuterHTML(a))
	}
}

// TestRestoreAllocs: once warm, Restore allocates nothing after events
// that edit attributes and child lists, whether it reverts them in place
// or also switches to another snapshot's tree, which is the document it
// restores, not a copy of it. Only the Restore calls are counted.
func TestRestoreAllocs(t *testing.T) {
	p := blankPage(t)
	ctx := context.Background()
	s0 := p.Snapshot()
	p.Doc.ElementByID("c").SetAttr("class", "other")
	s1 := p.Snapshot()
	p.Restore(s0)
	ev := Event{Type: "onclick", Path: p.Doc.ElementByID("a").Path(), Code: `this.className = "on";
document.getElementById("b").innerHTML = "<i>x</i> y";
document.getElementById("c").appendChild(document.createElement("p"));
this.parentNode.removeChild(document.getElementById("b"));`}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name  string
		snaps []*Snapshot
	}{{"same snapshot", []*Snapshot{s0}}, {"another snapshot", []*Snapshot{s0, s1}}} {
		var before, after runtime.MemStats
		mallocs := uint64(0)
		for i := 0; i < 40; i++ {
			if changed, err := p.Trigger(ctx, ev); err != nil || !changed {
				t.Fatalf("%s: changed=%v err=%v", c.name, changed, err)
			}
			runtime.ReadMemStats(&before)
			p.Restore(c.snaps[i%len(c.snaps)])
			runtime.ReadMemStats(&after)
			if i >= 10 { // warm-up: the pools and the fragment cache fill
				mallocs += after.Mallocs - before.Mallocs
			}
		}
		if mallocs != 0 {
			t.Fatalf("%s: 30 warm Restores allocate %d times, want 0", c.name, mallocs)
		}
	}
}

// TestFirstWriteAllocs: the first write of a source adopts its parse, so
// it allocates no more than html.ParseFragment of the source does.
func TestFirstWriteAllocs(t *testing.T) {
	p := blankPage(t)
	s := p.Snapshot()
	p.Restore(s)
	a := p.Doc.ElementByID("a")
	const src = `<ul class="comments"><li id=c1>wow <b>great</b></li><li id=c2>funny dance</li></ul> tail`
	parse := testing.AllocsPerRun(20, func() { html.ParseFragment(src) })
	write := testing.AllocsPerRun(20, func() {
		clear(p.fragments.parsed)
		p.fragments.bytes = 0
		p.Restore(s)
		p.setInnerHTML(a, src)
	})
	if write > parse {
		t.Fatalf("a first write allocates %v times, html.ParseFragment %v", write, parse)
	}
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
		if v, _ := global(p, "initialized"); !v.ToBool() {
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
		if v, err := p.Interp.Run(expr); err != nil || !v.ToBool() {
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
// were once a rollback to the same snapshot kept the element wrappers and
// the page parsed its URL once: 144 allocations and about 105 KB per
// state expansion of this page (188 and 109 KB with fresh wrappers per
// event; 196 and 158 KB with a clone per innerHTML write; 204 and 192 KB
// while rollback copied from the snapshot; 488 allocations before calls
// ran on the interpreter's stacks and the tree builder carved nodes from
// slabs, 1 325 before host methods, handler programs and innerHTML
// fragments were built once). It measures BenchmarkEventLoop's expansion
// over a fixed 200 runs after one warm-up run, on one P as
// testing.AllocsPerRun does: a few allocations elsewhere in the process
// cannot tip the per-run figure the way they could over a benchmark's
// small b.N under -race. The byte ceiling leaves room for the race
// detector (105 501 B under -race).
func TestEventLoopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("expands a state 201 times")
	}
	const runs = 200
	expand := newEventLoop(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	expand()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		expand()
	}
	runtime.ReadMemStats(&after)
	if got := (after.Mallocs - before.Mallocs) / runs; got > 144 {
		t.Fatalf("event loop: %d allocs per expansion, want ≤ 144", got)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 106_000 {
		t.Fatalf("event loop: %d B per expansion, want ≤ 106 000", got)
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

// TestInitialSnapshotDropsSpares: the initial Snapshot relinks the
// document's child lists in place, the nodes of a fragment onload wrote
// included, so that fragment stops being a spare. Here onload writes
// <i>1</i><i id=two>2</i> into #a and removes the second <i>: had the
// cache kept the first <i> as the spare, a later write of the same source
// would reattach it alone.
func TestInitialSnapshotDropsSpares(t *testing.T) {
	const src = `<i>1</i><i id="two">2</i>`
	body := []byte(`<html><head><script>
function init() { var a = document.getElementById('a'); a.innerHTML = '` + src + `'; a.removeChild(document.getElementById('two')); }
function write() { document.getElementById('a').innerHTML = '` + src + `'; }
</script></head><body onload="init()"><div id="a"></div><p onclick="write()">go</p></body></html>`)
	p := NewPage(fetch.Func(func(context.Context, string) (*fetch.Response, error) {
		return &fetch.Response{Status: 200, Body: body, ContentType: "text/html"}, nil
	}))
	ctx := context.Background()
	if err := p.Load(ctx, "/page"); err != nil {
		t.Fatal(err)
	}
	if err := p.RunOnLoad(ctx); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	p.Restore(snap)
	if _, err := p.Trigger(ctx, p.Events(nil)[0]); err != nil {
		t.Fatal(err)
	}
	if got := dom.InnerHTML(p.Doc.ElementByID("a")); got != src {
		t.Fatalf("#a holds %q after writing %q", got, src)
	}
}
