package html

import (
	"strings"
	"testing"
	"testing/quick"

	"ajaxcrawl/internal/dom"
)

func TestParseBasicDocument(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><html><head><title>T</title></head><body><div id="a">hi</div></body></html>`)
	if doc.Type != dom.DocumentNode {
		t.Fatalf("not a document")
	}
	div := doc.ElementByID("a")
	if div == nil || div.TextContent() != "hi" {
		t.Fatalf("div#a missing or wrong: %v", div)
	}
	if doc.Body() == nil {
		t.Fatalf("no body")
	}
}

func TestParseSynthesizesHTMLAndBody(t *testing.T) {
	doc := Parse(`<p>hello</p>`)
	body := doc.Body()
	if body == nil {
		t.Fatalf("body not synthesized")
	}
	if got := body.TextContent(); got != "hello" {
		t.Fatalf("body text = %q", got)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := Parse(`<div id="x" class='y z' disabled data-n=5 onclick="f(1, 'a')">t</div>`)
	d := doc.ElementByID("x")
	if d == nil {
		t.Fatalf("no div")
	}
	if v, _ := d.GetAttr("class"); v != "y z" {
		t.Fatalf("class = %q", v)
	}
	if v, ok := d.GetAttr("disabled"); !ok || v != "" {
		t.Fatalf("bare attribute wrong: %q %v", v, ok)
	}
	if v, _ := d.GetAttr("data-n"); v != "5" {
		t.Fatalf("unquoted attr = %q", v)
	}
	if v, _ := d.GetAttr("onclick"); v != "f(1, 'a')" {
		t.Fatalf("onclick = %q", v)
	}
}

func TestParseEntityDecodingInTextAndAttrs(t *testing.T) {
	doc := Parse(`<div title="a &amp; b">x &lt; y &#65; &#x42; &nbsp;&bogus; &amp</div>`)
	d := doc.ElementsByTag("div")[0]
	if v, _ := d.GetAttr("title"); v != "a & b" {
		t.Fatalf("attr entity = %q", v)
	}
	got := d.TextContent()
	if !strings.Contains(got, "x < y A B") {
		t.Fatalf("text entities = %q", got)
	}
	// Unknown named entities and the unterminated trailing &amp stay verbatim.
	if !strings.Contains(got, "&bogus;") || !strings.HasSuffix(got, "&amp") {
		t.Fatalf("malformed entities should be verbatim: %q", got)
	}
}

func TestParseScriptRawText(t *testing.T) {
	src := `<script>if (a < b && c > d) { s = "<div>not a tag</div>"; }</script>`
	doc := Parse(src)
	scripts := doc.ElementsByTag("script")
	if len(scripts) != 1 {
		t.Fatalf("want 1 script, got %d", len(scripts))
	}
	code := scripts[0].FirstChild.Data
	if !strings.Contains(code, `s = "<div>not a tag</div>";`) {
		t.Fatalf("script content mangled: %q", code)
	}
	// No <div> element must have been created inside the script.
	if len(doc.ElementsByTag("div")) != 0 {
		t.Fatalf("tag created inside raw text")
	}
}

func TestParseUnterminatedScript(t *testing.T) {
	doc := Parse(`<body><script>var x = 1;`)
	s := doc.ElementsByTag("script")
	if len(s) != 1 || s[0].FirstChild == nil || !strings.Contains(s[0].FirstChild.Data, "var x = 1;") {
		t.Fatalf("unterminated script lost: %v", s)
	}
}

func TestParseImpliedEndTags(t *testing.T) {
	doc := Parse(`<ul><li>one<li>two<li>three</ul>`)
	lis := doc.ElementsByTag("li")
	if len(lis) != 3 {
		t.Fatalf("want 3 li, got %d", len(lis))
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := lis[i].TextContent(); got != want {
			t.Fatalf("li[%d] = %q, want %q", i, got, want)
		}
	}
	// li elements must be siblings, not nested.
	if lis[1].Parent != lis[0].Parent {
		t.Fatalf("li nested instead of sibling")
	}
}

func TestParseImpliedParagraphClose(t *testing.T) {
	doc := Parse(`<p>one<p>two<div>three</div>`)
	ps := doc.ElementsByTag("p")
	if len(ps) != 2 {
		t.Fatalf("want 2 p, got %d", len(ps))
	}
	if ps[0].TextContent() != "one" || ps[1].TextContent() != "two" {
		t.Fatalf("p contents wrong: %q %q", ps[0].TextContent(), ps[1].TextContent())
	}
}

func TestParseTableCells(t *testing.T) {
	doc := Parse(`<table><tr><td>a<td>b<tr><td>c</table>`)
	if got := len(doc.ElementsByTag("tr")); got != 2 {
		t.Fatalf("want 2 tr, got %d", got)
	}
	if got := len(doc.ElementsByTag("td")); got != 3 {
		t.Fatalf("want 3 td, got %d", got)
	}
}

func TestParseVoidElements(t *testing.T) {
	doc := Parse(`<div><br><img src="x.png"><input type="text">after</div>`)
	div := doc.ElementsByTag("div")[0]
	if got := len(kids(div)); got != 4 {
		t.Fatalf("void elements nested: %d children", got)
	}
	if div.LastChild.Data != "after" {
		t.Fatalf("text after voids misplaced: %q", div.LastChild.Data)
	}
}

func TestParseSelfClosing(t *testing.T) {
	doc := Parse(`<div><span/>x</div>`)
	span := doc.ElementsByTag("span")[0]
	if span.FirstChild != nil {
		t.Fatalf("self-closing tag must not take children")
	}
}

// A slash inside a tag that does not close it used to stall the
// attribute scan forever — one byte from a page hung the process line.
func TestParseStraySlashInTag(t *testing.T) {
	doc := Parse(`<div><br/ ><a /x href="u" / y=1>t</a></div>`)
	a := doc.ElementsByTag("a")[0]
	if got := a.AttrOr("href", ""); got != "u" {
		t.Fatalf("href = %q", got)
	}
	if _, ok := a.GetAttr("x"); !ok {
		t.Fatalf("attribute after a stray slash lost: %v", a.Attr)
	}
	if got := a.TextContent(); got != "t" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseUnmatchedEndTagIgnored(t *testing.T) {
	doc := Parse(`<div>a</span>b</div>`)
	div := doc.ElementsByTag("div")[0]
	if got := div.TextContent(); got != "ab" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	doc := Parse(`<div><!-- hidden <b>not bold</b> -->x</div>`)
	if len(doc.ElementsByTag("b")) != 0 {
		t.Fatalf("element created inside comment")
	}
	if got := doc.ElementsByTag("div")[0].TextContent(); got != "x" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseStrayLessThan(t *testing.T) {
	doc := Parse(`<div>1 < 2 and 3 > 2</div>`)
	got := doc.ElementsByTag("div")[0].TextContent()
	if !strings.Contains(got, "1 < 2") {
		t.Fatalf("stray < lost: %q", got)
	}
}

// kids returns the children of n in order.
func kids(n *dom.Node) []*dom.Node {
	var out []*dom.Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		out = append(out, c)
	}
	return out
}

func TestParseFragment(t *testing.T) {
	root := ParseFragment(`text <b>bold</b> tail`)
	if root.Data != "#fragment" || root.Parent != nil {
		t.Fatalf("root = %q (parent %v), want a detached #fragment", root.Data, root.Parent)
	}
	nodes := kids(root)
	if len(nodes) != 3 {
		t.Fatalf("want 3 fragment nodes, got %d", len(nodes))
	}
	if nodes[1].Data != "b" {
		t.Fatalf("middle node = %q", nodes[1].Data)
	}
}

func TestSetInnerHTML(t *testing.T) {
	doc := Parse(`<div id="c"><p>old</p></div>`)
	div := doc.ElementByID("c")
	SetInnerHTML(div, `<span>new</span> content`)
	if len(doc.ElementsByTag("p")) != 0 {
		t.Fatalf("old content not removed")
	}
	if got := div.TextContent(); got != "new content" {
		t.Fatalf("new content = %q", got)
	}
	if div.FirstChild.Data != "span" {
		t.Fatalf("first child = %q", div.FirstChild.Data)
	}
}

func TestParseRenderRoundTrip(t *testing.T) {
	src := `<html><body><div id="a" class="b">x<span>y</span><br>z</div></body></html>`
	doc := Parse(src)
	out := dom.OuterHTML(doc)
	doc2 := Parse(out)
	if dom.CanonicalHash(doc) != dom.CanonicalHash(doc2) {
		t.Fatalf("render/reparse changed canonical hash:\n%s\n%s", out, dom.OuterHTML(doc2))
	}
}

// Property: parsing never panics and always yields a document with a body,
// for arbitrary byte soup.
func TestPropertyParseTotalAndShaped(t *testing.T) {
	f := func(s string) bool {
		doc := Parse(s)
		return doc.Type == dom.DocumentNode && doc.Body() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: render→parse→render is a fixpoint (idempotent serialization).
func TestPropertyRenderParseFixpoint(t *testing.T) {
	f := func(s string) bool {
		d1 := Parse(s)
		r1 := dom.OuterHTML(d1)
		d2 := Parse(r1)
		r2 := dom.OuterHTML(d2)
		return r1 == r2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnescapeEntitiesTable(t *testing.T) {
	cases := []struct{ in, want string }{
		{"no entities", "no entities"},
		{"&amp;", "&"},
		{"&lt;&gt;", "<>"},
		{"&#65;", "A"},
		{"&#x41;", "A"},
		{"&#X41;", "A"},
		{"a&nbsp;b", "a\u00a0b"}, // &nbsp; is U+00A0
		{"&unknown;", "&unknown;"},
		{"&#;", "&#;"},
		{"&#x;", "&#x;"},
		{"&#xZZ;", "&#xZZ;"},
		{"&", "&"},
		{"&&amp;&", "&&&"},
		{"&#0;", "&#0;"},             // NUL rejected
		{"&#1114112;", "&#1114112;"}, // beyond Unicode
		{"tail&amp", "tail&amp"},     // unterminated
	}
	for _, c := range cases {
		if got := UnescapeEntities(c.in); got != c.want {
			t.Errorf("UnescapeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func BenchmarkParseWatchPageSized(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<html><head><title>t</title></head><body>")
	for i := 0; i < 100; i++ {
		sb.WriteString(`<div class="comment"><span class="author">user</span> some comment text with several words</div>`)
	}
	sb.WriteString("</body></html>")
	src := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Parse(src)
	}
}

// TestArenaGrowsToLargestTree: when the parses since a Reset outgrew the
// arena's chunk, the Reset takes one as large as they took, so the same
// tree parses into it again without a new chunk.
func TestArenaGrowsToLargestTree(t *testing.T) {
	large := strings.Repeat("<p>x</p>", 3*maxChunk)
	var s Slab
	s.Parse("<p>x</p>", false)
	s.Reset()
	s.Parse(large, false) // outgrows the small chunk, and then maxChunk
	s.Reset()
	chunk := &s.nodes.buf[0]
	for i := 0; i < 3; i++ {
		if doc := s.Parse(large, false); doc != chunk {
			t.Fatalf("parse %d: the document is not at the start of the arena's chunk", i)
		}
		s.Reset()
		if &s.nodes.buf[0] != chunk {
			t.Fatalf("parse %d: Reset replaced a chunk the tree fit in", i)
		}
	}
}
