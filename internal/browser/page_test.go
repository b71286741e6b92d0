package browser

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/fetch"
)

// testSite is a miniature AJAX application shaped like the thesis's
// YouTube example: a content div whose pages are loaded via XHR.
func testSite() http.Handler {
	mux := http.NewServeMux()
	page := `<html><head><title>Test Video</title>
<script>
function showLoading(id) { document.getElementById(id).className = "loading"; }
function getUrl(url, async) {
	var req = new XMLHttpRequest();
	req.open("GET", url, async);
	req.send(null);
	return req.responseText;
}
function getUrlXMLResponseAndFillDiv(url, div_id) {
	var resp = getUrl(url, false);
	document.getElementById(div_id).innerHTML = resp;
}
function urchinTracker(a) { }
function loadPage(p) {
	showLoading('content');
	getUrlXMLResponseAndFillDiv('/data?p=' + p, 'content');
	urchinTracker('/watch');
}
var initialized = false;
function init() { initialized = true; }
</script>
</head>
<body onload="init()">
<h1>Test Video</h1>
<div id="content">page 1 content <span onclick="loadPage(2)" id="next">next</span></div>
<a href="/watch?v=other">related</a>
<a href="#top">anchor</a>
<a href="javascript:void(0)">js link</a>
</body></html>`
	mux.HandleFunc("/watch", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, page)
	})
	mux.HandleFunc("/data", func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Query().Get("p")
		fmt.Fprintf(w, `page %s content <span onclick="loadPage(%s1)" id="next">next</span>`, p, p)
	})
	mux.HandleFunc("/ext.js", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "var fromExternal = 42;")
	})
	mux.HandleFunc("/extpage", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script src="/ext.js"></script></head><body></body></html>`)
	})
	return mux
}

func loadTestPage(t *testing.T) *Page {
	t.Helper()
	p := NewPage(&fetch.HandlerFetcher{Handler: testSite()})
	if err := p.Load(context.Background(), "/watch?v=x"); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadParsesAndRunsScripts(t *testing.T) {
	p := loadTestPage(t)
	if p.Doc.ElementByID("content") == nil {
		t.Fatalf("content div missing")
	}
	// Scripts ran: the functions exist as globals.
	if v, ok := p.Interp.LookupGlobal("loadPage"); !ok || !v.Object().IsCallable() {
		t.Fatalf("script functions not defined")
	}
	// But onload has not fired yet.
	if v, _ := p.Interp.LookupGlobal("initialized"); v.ToBool() {
		t.Fatalf("onload fired during Load")
	}
}

func TestRunOnLoad(t *testing.T) {
	p := loadTestPage(t)
	if err := p.RunOnLoad(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.Interp.LookupGlobal("initialized"); !v.ToBool() {
		t.Fatalf("onload did not run")
	}
}

func TestEventsEnumeration(t *testing.T) {
	p := loadTestPage(t)
	evs := p.Events(nil)
	if len(evs) != 1 {
		t.Fatalf("want 1 event, got %d: %v", len(evs), evs)
	}
	if evs[0].Type != "onclick" || evs[0].ID != "next" || !strings.Contains(evs[0].Code, "loadPage(2)") {
		t.Fatalf("event = %+v", evs[0])
	}
	// Type filtering.
	if got := p.Events([]string{"onmouseover"}); len(got) != 0 {
		t.Fatalf("filter failed: %v", got)
	}
}

func TestTriggerChangesDOMViaXHR(t *testing.T) {
	p := loadTestPage(t)
	evs := p.Events(nil)
	changed, err := p.Trigger(context.Background(), evs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatalf("trigger should change the DOM")
	}
	content := p.Doc.ElementByID("content")
	if !strings.Contains(content.TextContent(), "page 2 content") {
		t.Fatalf("content = %q", content.TextContent())
	}
	if p.NetworkCalls != 1 || p.XHRSends != 1 {
		t.Fatalf("network calls = %d, sends = %d", p.NetworkCalls, p.XHRSends)
	}
	// The new state carries its own next event (loadPage(21)).
	evs2 := p.Events(nil)
	if len(evs2) != 1 || !strings.Contains(evs2[0].Code, "loadPage(21)") {
		t.Fatalf("new state events = %v", evs2)
	}
}

func TestTriggerNoChange(t *testing.T) {
	p := loadTestPage(t)
	// An event whose handler only touches JS state must report no change.
	changed, err := p.Trigger(context.Background(), Event{Type: "onclick", Code: "var tmp = 1;", Path: p.Doc.Body().Path()})
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatalf("pure-JS handler must not change DOM")
	}
}

func TestSnapshotRestore(t *testing.T) {
	p := loadTestPage(t)
	snap := p.Snapshot()
	h0 := p.Hash()
	if _, err := p.Trigger(context.Background(), p.Events(nil)[0]); err != nil {
		t.Fatal(err)
	}
	if p.Hash() == h0 {
		t.Fatalf("hash should differ after event")
	}
	p.Restore(snap)
	if p.Hash() != h0 {
		t.Fatalf("restore did not roll back the DOM")
	}
	// The snapshot stays usable for repeated restores.
	if _, err := p.Trigger(context.Background(), p.Events(nil)[0]); err != nil {
		t.Fatal(err)
	}
	p.Restore(snap)
	if p.Hash() != h0 {
		t.Fatalf("second restore failed")
	}
}

// TestRestoreKeepsUntouchedSubtrees: rolling back an event that rewrote
// #a puts back the very nodes it displaced, so the restored document is
// node for node the one before the event, as in a browser, and an
// element handle a handler kept in a global stays attached.
func TestRestoreKeepsUntouchedSubtrees(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/page", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script>
var n = 0, kept = null;
function edit() { kept = document.getElementById('b'); document.getElementById('a').innerHTML = '<i>' + (++n) + '</i>'; }
</script></head><body><div id="a"><span>x</span></div><div id="b"><p onclick="edit()">keep</p></div></body></html>`)
	})
	p := NewPage(&fetch.HandlerFetcher{Handler: mux})
	if err := p.Load(context.Background(), "/page"); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	want := dom.OuterHTML(p.Doc)
	for round := 0; round < 3; round++ {
		p.Restore(snap)
		var before []*dom.Node
		p.Doc.Walk(func(n *dom.Node) bool { before = append(before, n); return true })
		changed, err := p.Trigger(context.Background(), p.Events(nil)[0])
		if err != nil || !changed {
			t.Fatalf("round %d: trigger changed=%v err=%v", round, changed, err)
		}
		p.Restore(snap)
		if got := dom.OuterHTML(p.Doc); got != want {
			t.Fatalf("round %d: restored %q, want %q", round, got, want)
		}
		i := 0
		p.Doc.Walk(func(n *dom.Node) bool {
			if i >= len(before) || n != before[i] {
				t.Fatalf("round %d: %s %q is not the node before the event", round, n.Type, n.Data)
			}
			i++
			return true
		})
		if i != len(before) {
			t.Fatalf("round %d: restored %d nodes, want %d", round, i, len(before))
		}
		kept, _ := p.Interp.LookupGlobal("kept")
		if b := p.unwrapElement(kept); b == nil || b != p.Doc.ElementByID("b") {
			t.Fatalf("round %d: the element the handler kept is not #b of the document", round)
		}
	}
}

// TestKeptHandleSurvivesRestore: a handler that caches an element in a
// global and rewrites it through that handle changes the state on every
// event, not only on the first — the rollback in between puts back the
// element itself, not a copy of it.
func TestKeptHandleSurvivesRestore(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/page", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script>
var kept = null;
function one() { kept = kept || document.getElementById('a'); kept.innerHTML = 'one'; }
function two() { kept = kept || document.getElementById('a'); kept.innerHTML = 'two'; }
</script></head><body><div id="a">zero</div><p onclick="one()">1</p><p onclick="two()">2</p></body></html>`)
	})
	p := NewPage(&fetch.HandlerFetcher{Handler: mux})
	if err := p.Load(context.Background(), "/page"); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	events := p.Events(nil)
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	for i, want := range []string{"one", "two"} {
		p.Restore(snap)
		changed, err := p.Trigger(context.Background(), events[i])
		if err != nil || !changed {
			t.Fatalf("event %d: changed=%v err=%v, want a change", i, changed, err)
		}
		if got := p.Doc.ElementByID("a").TextContent(); got != want {
			t.Fatalf("event %d: #a reads %q, want %q", i, got, want)
		}
	}
}

// TestWrappersAcrossRestore: a rollback to the same snapshot keeps the
// element wrappers the scripts saw — identity and expando properties are
// JavaScript state (thesis §4.3) — but resets their style object, which
// stands for the style attribute the rollback restored. Switching to
// another snapshot makes fresh wrappers for its fresh nodes.
func TestWrappersAcrossRestore(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/page", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script>
var kept = null;
function one() { kept = document.getElementById('a'); kept.mark = 'set'; kept.style.display = 'none'; kept.innerHTML = 'one'; }
function two() { var a = document.getElementById('a'); a.innerHTML = (a === kept) + ',' + a.mark + ',' + (a.style.display || ''); }
</script></head><body><div id="a">zero</div><p onclick="one()">1</p><p onclick="two()">2</p></body></html>`)
	})
	ctx := context.Background()
	p := NewPage(&fetch.HandlerFetcher{Handler: mux})
	if err := p.Load(ctx, "/page"); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	events := p.Events(nil)
	for i, want := range []string{"one", "true,set,"} {
		p.Restore(snap)
		if changed, err := p.Trigger(ctx, events[i]); err != nil || !changed {
			t.Fatalf("event %d: changed=%v err=%v, want a change", i, changed, err)
		}
		if got := p.Doc.ElementByID("a").TextContent(); got != want {
			t.Fatalf("event %d: #a reads %q, want %q (identity, expando, style display)", i, got, want)
		}
	}
	p.Restore(p.Snapshot())
	v, err := p.Interp.Run(`var b = document.getElementById('a'); (b === kept) + ',' + b.mark`)
	if err != nil || v.StrVal() != "false,undefined" {
		t.Fatalf("after a switch of snapshots, #a's wrapper reads %v (%v), want a fresh one: false,undefined", v, err)
	}
}

func TestXHRInterception(t *testing.T) {
	p := loadTestPage(t)
	hook := &recordingHook{cache: map[string]string{}}
	p.XHR = hook

	// First trigger: miss -> network -> AfterSend caches.
	if _, err := p.Trigger(context.Background(), p.Events(nil)[0]); err != nil {
		t.Fatal(err)
	}
	if p.NetworkCalls != 1 || len(hook.after) != 1 {
		t.Fatalf("first send: calls=%d after=%d", p.NetworkCalls, len(hook.after))
	}
	// Re-trigger the same underlying request from a fresh state: the
	// hook serves it, no network.
	snapBefore := p.Snapshot()
	_ = snapBefore
	p.Restore(&Snapshot{doc: p.Doc.Clone()})
	if _, err := p.Trigger(context.Background(), Event{Type: "onclick", Code: "loadPage(2)", Path: p.Doc.Body().Path()}); err != nil {
		t.Fatal(err)
	}
	if p.NetworkCalls != 1 {
		t.Fatalf("intercepted send still hit network: calls=%d", p.NetworkCalls)
	}
	if p.XHRSends != 2 {
		t.Fatalf("sends = %d", p.XHRSends)
	}
}

type recordingHook struct {
	cache map[string]string
	after []string
}

func (h *recordingHook) BeforeSend(p *Page, req *XHRRequest) (string, bool) {
	body, ok := h.cache[req.URL]
	return body, ok
}

func (h *recordingHook) AfterSend(p *Page, req *XHRRequest, body string) {
	h.cache[req.URL] = body
	h.after = append(h.after, req.URL)
}

func TestLinks(t *testing.T) {
	p := loadTestPage(t)
	links := p.Links()
	if len(links) != 1 || !strings.HasSuffix(links[0], "/watch?v=other") {
		t.Fatalf("links = %v (anchors and javascript: must be skipped)", links)
	}
}

func TestLoadStatic(t *testing.T) {
	p := NewPage(&fetch.HandlerFetcher{Handler: testSite()})
	if err := p.LoadStatic(context.Background(), "/watch?v=x"); err != nil {
		t.Fatal(err)
	}
	if p.Interp != nil {
		t.Fatalf("static load must not create a JS environment")
	}
	if p.Doc.ElementByID("content") == nil {
		t.Fatalf("static DOM missing content")
	}
}

func TestExternalScript(t *testing.T) {
	p := NewPage(&fetch.HandlerFetcher{Handler: testSite()})
	if err := p.Load(context.Background(), "/extpage"); err != nil {
		t.Fatal(err)
	}
	v, ok := p.Interp.LookupGlobal("fromExternal")
	if !ok || v.NumVal() != 42 {
		t.Fatalf("external script not executed: %v %v", v, ok)
	}
}

func TestLoadErrors(t *testing.T) {
	p := NewPage(&fetch.HandlerFetcher{Handler: testSite()})
	if err := p.Load(context.Background(), "/missing-page"); err == nil {
		t.Fatalf("404 load should fail")
	}
	bad := NewPage(fetch.Func(func(context.Context, string) (*fetch.Response, error) {
		return nil, fmt.Errorf("down")
	}))
	if err := bad.Load(context.Background(), "/x"); err == nil {
		t.Fatalf("fetch error should fail")
	}
}

func TestDOMManipulationFromJS(t *testing.T) {
	p := loadTestPage(t)
	_, err := p.Interp.Run(`
		var d = document.createElement("div");
		d.id = "made";
		d.innerHTML = "<b>bold</b>";
		document.body.appendChild(d);
	`)
	if err != nil {
		t.Fatal(err)
	}
	made := p.Doc.ElementByID("made")
	if made == nil || len(made.ElementsByTag("b")) != 1 {
		t.Fatalf("JS-created element not attached: %v", dom.OuterHTML(p.Doc.Body()))
	}
	// getAttribute / setAttribute round trip.
	_, err = p.Interp.Run(`
		var el = document.getElementById("made");
		el.setAttribute("data-k", "v");
	`)
	if err != nil {
		t.Fatal(err)
	}
	if got := made.AttrOr("data-k", ""); got != "v" {
		t.Fatalf("setAttribute failed: %q", got)
	}
}

func TestDocumentQueries(t *testing.T) {
	p := loadTestPage(t)
	v, err := p.Interp.Run(`document.title`)
	if err != nil || v.StrVal() != "Test Video" {
		t.Fatalf("document.title = %v %v", v, err)
	}
	v, err = p.Interp.Run(`document.getElementsByTagName("a").length`)
	if err != nil || v.NumVal() != 3 {
		t.Fatalf("getElementsByTagName = %v %v", v, err)
	}
	v, err = p.Interp.Run(`document.getElementById("nope") === null`)
	if err != nil || !v.BoolVal() {
		t.Fatalf("missing id should be null: %v %v", v, err)
	}
	v, err = p.Interp.Run(`location.href`)
	if err != nil || v.StrVal() != "/watch?v=x" {
		t.Fatalf("location.href = %v %v", v, err)
	}
}

func TestSetTimeoutRunsSynchronously(t *testing.T) {
	p := loadTestPage(t)
	v, err := p.Interp.Run(`var ran = false; setTimeout(function() { ran = true; }, 50); ran`)
	if err != nil || !v.BoolVal() {
		t.Fatalf("setTimeout callback did not run synchronously: %v %v", v, err)
	}
}

func TestEventStringAndWrapperCache(t *testing.T) {
	ev := Event{Type: "onclick", ID: "next", Path: "html[0]/body[0]/span[0]"}
	if ev.String() != "onclick@next" {
		t.Fatalf("Event.String = %q", ev.String())
	}
	ev.ID = ""
	if ev.String() != "onclick@html[0]/body[0]/span[0]" {
		t.Fatalf("Event.String fallback = %q", ev.String())
	}
	p := loadTestPage(t)
	n := p.Doc.ElementByID("content")
	if p.wrapElement(n) != p.wrapElement(n) {
		t.Fatalf("wrapper must be cached per node")
	}
}

func TestHandlerErrorsSurface(t *testing.T) {
	p := loadTestPage(t)
	// Syntax error in the handler code.
	if _, err := p.Trigger(context.Background(), Event{Type: "onclick", Code: "if (", Path: p.Doc.Body().Path()}); err == nil {
		t.Fatalf("syntax error should surface")
	}
	// Runtime error in the handler code.
	if _, err := p.Trigger(context.Background(), Event{Type: "onclick", Code: "missingFn()", Path: p.Doc.Body().Path()}); err == nil {
		t.Fatalf("runtime error should surface")
	}
	// Event source not resolvable at all.
	if _, err := p.Trigger(context.Background(), Event{Type: "onclick", Code: "1", Path: "html[0]/body[0]/div[99]"}); err == nil {
		t.Fatalf("missing source should surface")
	}
}

func TestBrokenInlineScriptFailsLoad(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/bad", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script>function broken( {</script></head><body></body></html>`)
	})
	p := NewPage(&fetch.HandlerFetcher{Handler: mux})
	if err := p.Load(context.Background(), "/bad"); err == nil {
		t.Fatalf("broken script should fail the load")
	}
}

func TestMissingExternalScriptFailsLoad(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/page", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script src="/gone.js"></script></head><body></body></html>`)
	})
	p := NewPage(fetch.Func(func(ctx context.Context, url string) (*fetch.Response, error) {
		if url == "/page" {
			rec := &fetch.HandlerFetcher{Handler: mux}
			return rec.Fetch(context.Background(), url)
		}
		return nil, fmt.Errorf("no such script")
	}))
	if err := p.Load(context.Background(), "/page"); err == nil {
		t.Fatalf("missing external script should fail the load")
	}
}

func TestOnLoadAbsentAndEmpty(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/noload", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><body onload="   "><p>x</p></body></html>`)
	})
	p := NewPage(&fetch.HandlerFetcher{Handler: mux})
	if err := p.Load(context.Background(), "/noload"); err != nil {
		t.Fatal(err)
	}
	if err := p.RunOnLoad(context.Background()); err != nil {
		t.Fatalf("blank onload should be a no-op: %v", err)
	}
}

func TestEventStringFallsBackById(t *testing.T) {
	p := loadTestPage(t)
	// Trigger by ID fallback: give a stale path but valid id.
	changed, err := p.Trigger(context.Background(), Event{Type: "onclick", Code: "loadPage(2)", Path: "html[0]/body[0]/p[42]", ID: "next"})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatalf("id fallback should have fired the handler")
	}
}
