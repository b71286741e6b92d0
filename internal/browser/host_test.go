package browser

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ajaxcrawl/internal/fetch"
)

// jsonSite serves a page whose AJAX flow ships JSON instead of HTML
// fragments — the other common era pattern.
func jsonSite() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/app", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `<html><head><script>
function load(p) {
	var req = new XMLHttpRequest();
	req.open("GET", "/api?p=" + p, true);
	req.onreadystatechange = function() {
		if (req.readyState == 4 && req.status == 200) {
			var data = JSON.parse(req.responseText);
			var out = "<ul>";
			for (var i = 0; i < data.items.length; i++) {
				out += "<li>" + data.items[i] + "</li>";
			}
			out += "</ul>";
			document.getElementById("list").innerHTML = out;
			document.title = data.title;
		}
	};
	req.send(null);
}
</script></head>
<body><div id="list" onclick="load(2)">initial</div></body></html>`)
	})
	mux.HandleFunc("/api", func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Query().Get("p")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"title": "page %s", "items": ["alpha %s", "beta %s"]}`, p, p, p)
	})
	return mux
}

// TestJSONAJAXFlow exercises the async-style XHR with an
// onreadystatechange callback parsing JSON — end to end through the
// interpreter, host objects, and DOM mutation.
func TestJSONAJAXFlow(t *testing.T) {
	p := NewPage(&fetch.HandlerFetcher{Handler: jsonSite()})
	if err := p.Load(context.Background(), "/app"); err != nil {
		t.Fatal(err)
	}
	evs := p.Events(nil)
	if len(evs) != 1 {
		t.Fatalf("events = %v", evs)
	}
	changed, err := p.Trigger(context.Background(), evs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatalf("JSON flow did not change DOM")
	}
	list := p.Doc.ElementByID("list")
	if got := list.TextContent(); !strings.Contains(got, "alpha 2") || !strings.Contains(got, "beta 2") {
		t.Fatalf("list content = %q", got)
	}
	if len(list.ElementsByTag("li")) != 2 {
		t.Fatalf("items not rendered as elements")
	}
	// document.title assignment routed to the DOM... the test page has
	// no <title>; add one and re-run to cover the mutable path.
	p2 := NewPage(&fetch.HandlerFetcher{Handler: jsonSite()})
	if err := p2.Load(context.Background(), "/app"); err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Interp.Run(`document.title`); err != nil {
		t.Fatal(err)
	}
}

func TestDocumentTitleMutation(t *testing.T) {
	p := loadTestPage(t)
	if _, err := p.Interp.Run(`document.title = "renamed"`); err != nil {
		t.Fatal(err)
	}
	v, err := p.Interp.Run(`document.title`)
	if err != nil || v.StrVal() != "renamed" {
		t.Fatalf("title = %v %v", v, err)
	}
	titles := p.Doc.ElementsByTag("title")
	if len(titles) != 1 || titles[0].TextContent() != "renamed" {
		t.Fatalf("DOM title not updated")
	}
}

func TestElementHostSurface(t *testing.T) {
	p := loadTestPage(t)
	checks := []struct {
		src  string
		want string
	}{
		{`document.getElementById("content").tagName`, "DIV"},
		{`document.getElementById("content").id`, "content"},
		{`document.getElementById("next").parentNode.id`, "content"},
		{`document.body.tagName`, "BODY"},
		{`document.getElementById("content").getElementsByTagName("span").length + ""`, "1"},
	}
	for _, c := range checks {
		v, err := p.Interp.Run(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if v.ToString() != c.want {
			t.Fatalf("%s = %q, want %q", c.src, v.ToString(), c.want)
		}
	}
	// className get/set and attribute removal.
	if _, err := p.Interp.Run(`
		var el = document.getElementById("content");
		el.className = "highlight";
	`); err != nil {
		t.Fatal(err)
	}
	if got := p.Doc.ElementByID("content").AttrOr("class", ""); got != "highlight" {
		t.Fatalf("class = %q", got)
	}
	if _, err := p.Interp.Run(`document.getElementById("content").removeAttribute("class")`); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Doc.ElementByID("content").GetAttr("class"); ok {
		t.Fatalf("removeAttribute failed")
	}
}

func TestCreateAndRemoveNodes(t *testing.T) {
	p := loadTestPage(t)
	_, err := p.Interp.Run(`
		var d = document.createElement("div");
		d.id = "tmp";
		d.appendChild(document.createTextNode("made by js"));
		document.body.appendChild(d);
	`)
	if err != nil {
		t.Fatal(err)
	}
	tmp := p.Doc.ElementByID("tmp")
	if tmp == nil || tmp.TextContent() != "made by js" {
		t.Fatalf("createTextNode/appendChild failed: %v", tmp)
	}
	if _, err := p.Interp.Run(`
		document.body.removeChild(document.getElementById("tmp"));
	`); err != nil {
		t.Fatal(err)
	}
	if p.Doc.ElementByID("tmp") != nil {
		t.Fatalf("removeChild failed")
	}
	// removeChild of a non-child errors (catchable).
	v, err := p.Interp.Run(`
		var r = "no";
		try { document.body.removeChild(document.createElement("p")); } catch (e) { r = "caught"; }
		r
	`)
	if err != nil || v.StrVal() != "caught" {
		t.Fatalf("removeChild non-child: %v %v", v, err)
	}
}

func TestStyleObjectIsInert(t *testing.T) {
	p := loadTestPage(t)
	h0 := p.Hash()
	if _, err := p.Interp.Run(`
		var el = document.getElementById("content");
		el.style.display = "none";
		el.style.cursor = "wait";
	`); err != nil {
		t.Fatal(err)
	}
	if p.Hash() != h0 {
		t.Fatalf("style writes must not change the state hash")
	}
	v, err := p.Interp.Run(`document.getElementById("content").style.display`)
	if err != nil || v.StrVal() != "none" {
		t.Fatalf("style readback = %v %v", v, err)
	}
}

func TestXHRStatusOnMissingEndpoint(t *testing.T) {
	p := loadTestPage(t)
	v, err := p.Interp.Run(`
		var req = new XMLHttpRequest();
		req.open("GET", "/definitely-missing", false);
		req.send(null);
		req.status
	`)
	if err != nil {
		t.Fatal(err)
	}
	if v.ToNumber() != 404 {
		t.Fatalf("status = %v, want 404", v)
	}
}

func TestWindowGlobalsAndThis(t *testing.T) {
	p := loadTestPage(t)
	v, err := p.Interp.Run(`window.document === document`)
	if err != nil || !v.ToBool() {
		t.Fatalf("window.document mismatch: %v %v", v, err)
	}
	// Top-level this is the window.
	v, err = p.Interp.Run(`this === window`)
	if err != nil || !v.ToBool() {
		t.Fatalf("this !== window: %v %v", v, err)
	}
	// alert/clearTimeout exist and are harmless.
	if _, err := p.Interp.Run(`alert("hi"); clearTimeout(0); setInterval(function(){}, 10); clearInterval(0);`); err != nil {
		t.Fatal(err)
	}
}

func TestConsoleLogCapture(t *testing.T) {
	p := loadTestPage(t)
	if _, err := p.Interp.Run(`console.log("a", 1, true)`); err != nil {
		t.Fatal(err)
	}
	if len(p.ConsoleLog) != 1 || p.ConsoleLog[0] != "a 1 true" {
		t.Fatalf("console log = %v", p.ConsoleLog)
	}
}

// TestConsoleLogIsBounded: a handler logging in a loop leaves the page
// holding its first maxConsoleLines lines, not one per iteration.
func TestConsoleLogIsBounded(t *testing.T) {
	p := loadTestPage(t)
	ev := Event{Type: "onclick", Code: "for (var i = 0; i < 1000000; i++) console.log('line', i);", Path: p.Doc.Body().Path()}
	// The step budget may preempt the loop first; either way the log is
	// what the page keeps.
	_, _ = p.Trigger(context.Background(), ev)
	if n := len(p.ConsoleLog); n != maxConsoleLines {
		t.Fatalf("console log holds %d lines, want the first %d", n, maxConsoleLines)
	}
	if p.ConsoleLog[0] != "line 0" {
		t.Fatalf("first console line %q, want %q", p.ConsoleLog[0], "line 0")
	}
}
