package dom

import (
	"strings"
	"testing"
)

// buildDoc constructs:
//
//	<html><body><div id="a">hello<span id="b">world</span></div></body></html>
func buildDoc() *Node {
	doc := &Node{Type: DocumentNode}
	html := NewElement("html")
	body := NewElement("body")
	div := NewElement("div", "id", "a")
	span := NewElement("span", "id", "b")
	span.AppendChild(NewText("world"))
	div.AppendChild(NewText("hello"))
	div.AppendChild(span)
	body.AppendChild(div)
	html.AppendChild(body)
	doc.AppendChild(html)
	return doc
}

func TestAppendChildLinks(t *testing.T) {
	p := NewElement("div")
	a := NewElement("a")
	b := NewElement("b")
	p.AppendChild(a)
	p.AppendChild(b)
	if p.FirstChild != a || p.LastChild != b {
		t.Fatalf("first/last child wrong")
	}
	if a.NextSibling != b || b.PrevSibling != a {
		t.Fatalf("sibling links wrong")
	}
	if a.Parent != p || b.Parent != p {
		t.Fatalf("parent links wrong")
	}
}

func TestAppendAttachedPanics(t *testing.T) {
	p := NewElement("div")
	c := NewElement("a")
	p.AppendChild(c)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic appending attached child")
		}
	}()
	NewElement("div").AppendChild(c)
}

func TestRemoveChild(t *testing.T) {
	p := NewElement("div")
	a, b, c := NewText("a"), NewText("b"), NewText("c")
	p.AppendChild(a)
	p.AppendChild(b)
	p.AppendChild(c)
	p.RemoveChild(b)
	if b.Parent != nil || b.PrevSibling != nil || b.NextSibling != nil {
		t.Fatalf("removed node still linked")
	}
	if a.NextSibling != c || c.PrevSibling != a {
		t.Fatalf("siblings not relinked after removal")
	}
	p.RemoveChildren()
	if p.FirstChild != nil || p.LastChild != nil {
		t.Fatalf("RemoveChildren left children")
	}
}

func TestAttrOperations(t *testing.T) {
	n := NewElement("div")
	if _, ok := n.GetAttr("id"); ok {
		t.Fatalf("unexpected attr on fresh element")
	}
	n.SetAttr("ID", "x")
	if v, ok := n.GetAttr("id"); !ok || v != "x" {
		t.Fatalf("SetAttr should lower-case keys; got %q %v", v, ok)
	}
	n.SetAttr("id", "y")
	if n.AttrOr("id", "") != "y" || len(n.Attr) != 1 {
		t.Fatalf("SetAttr should replace, not duplicate")
	}
	if n.AttrOr("class", "def") != "def" {
		t.Fatalf("AttrOr default failed")
	}
	n.RemoveAttr("id")
	if _, ok := n.GetAttr("id"); ok {
		t.Fatalf("RemoveAttr failed")
	}
	n.RemoveAttr("missing") // must not panic
}

func TestElementByID(t *testing.T) {
	doc := buildDoc()
	if e := doc.ElementByID("b"); e == nil || e.Data != "span" {
		t.Fatalf("ElementByID(b) = %v", e)
	}
	if e := doc.ElementByID("nope"); e != nil {
		t.Fatalf("ElementByID(nope) should be nil")
	}
}

func TestElementsByTag(t *testing.T) {
	doc := buildDoc()
	if got := doc.ElementsByTag("span"); len(got) != 1 {
		t.Fatalf("want 1 span, got %d", len(got))
	}
	all := doc.ElementsByTag("")
	if len(all) != 4 { // html, body, div, span
		t.Fatalf("want 4 elements, got %d", len(all))
	}
	if doc.Body() == nil || doc.Body().Data != "body" {
		t.Fatalf("Body lookup failed")
	}
}

func TestTextContent(t *testing.T) {
	doc := buildDoc()
	if got := doc.TextContent(); got != "helloworld" {
		t.Fatalf("TextContent = %q", got)
	}
	// script text must be excluded
	s := NewElement("script")
	s.AppendChild(NewText("var x = 1;"))
	doc.Body().AppendChild(s)
	if got := doc.TextContent(); got != "helloworld" {
		t.Fatalf("TextContent should skip script, got %q", got)
	}
}

func TestVisibleTextCollapsesWhitespace(t *testing.T) {
	d := NewElement("div")
	d.AppendChild(NewText("  a \n\t b  "))
	d.AppendChild(NewText("c  "))
	if got := d.VisibleText(); got != "a b c" {
		t.Fatalf("VisibleText = %q", got)
	}
}

func TestCollapseWhitespace(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"   ", ""},
		{"a", "a"},
		{" a ", "a"},
		{"a  b", "a b"},
		{"a\n\r\t\fb", "a b"},
		{"héllo   wörld", "héllo wörld"},
	}
	for _, c := range cases {
		if got := CollapseWhitespace(c.in); got != c.want {
			t.Errorf("CollapseWhitespace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestClone(t *testing.T) {
	doc := buildDoc()
	c := doc.Clone()
	if !Equal(doc, c) {
		t.Fatalf("clone not equal to original")
	}
	// Mutating the clone must not affect the original.
	c.ElementByID("b").SetAttr("id", "z")
	if doc.ElementByID("b") == nil {
		t.Fatalf("original mutated by clone edit")
	}
	if Equal(doc, c) {
		t.Fatalf("clone should differ after mutation")
	}
}

func TestPathRoundTrip(t *testing.T) {
	doc := buildDoc()
	span := doc.ElementByID("b")
	p := span.Path()
	if p == "" {
		t.Fatalf("empty path")
	}
	got := doc.ByPath(p)
	if got != span {
		t.Fatalf("ByPath(%q) = %v, want span", p, got)
	}
	if doc.ByPath("html[0]/body[0]/div[5]") != nil {
		t.Fatalf("bogus path should resolve to nil")
	}
	if doc.ByPath("") != doc {
		t.Fatalf("empty path should return receiver")
	}
}

func TestPathSecondSibling(t *testing.T) {
	p := NewElement("div")
	a := NewElement("a")
	b := NewElement("a")
	p.AppendChild(NewText("x"))
	p.AppendChild(a)
	p.AppendChild(NewText("y"))
	p.AppendChild(b)
	doc := &Node{Type: DocumentNode}
	doc.AppendChild(p)
	if got := doc.ByPath(b.Path()); got != b {
		t.Fatalf("ByPath for second sibling = %v", got)
	}
}

func TestRenderBasics(t *testing.T) {
	doc := buildDoc()
	got := OuterHTML(doc)
	want := `<html><body><div id="a">hello<span id="b">world</span></div></body></html>`
	if got != want {
		t.Fatalf("OuterHTML = %q, want %q", got, want)
	}
}

func TestRenderEscaping(t *testing.T) {
	d := NewElement("div", "title", `a"b<c`)
	d.AppendChild(NewText(`x < y & z`))
	got := OuterHTML(d)
	if !strings.Contains(got, `title="a&quot;b&lt;c"`) {
		t.Fatalf("attr not escaped: %q", got)
	}
	if !strings.Contains(got, "x &lt; y &amp; z") {
		t.Fatalf("text not escaped: %q", got)
	}
}

func TestRenderVoidAndRawText(t *testing.T) {
	d := NewElement("div")
	d.AppendChild(NewElement("br"))
	s := NewElement("script")
	s.AppendChild(NewText("if (a < b) { c(); }"))
	d.AppendChild(s)
	got := OuterHTML(d)
	if !strings.Contains(got, "<br>") || strings.Contains(got, "</br>") {
		t.Fatalf("void element rendered wrong: %q", got)
	}
	if !strings.Contains(got, "if (a < b) { c(); }") {
		t.Fatalf("script content must be raw: %q", got)
	}
}

func TestInnerHTML(t *testing.T) {
	doc := buildDoc()
	div := doc.ElementByID("a")
	got := InnerHTML(div)
	if got != `hello<span id="b">world</span>` {
		t.Fatalf("InnerHTML = %q", got)
	}
}

func TestRenderCommentAndDoctype(t *testing.T) {
	doc := &Node{Type: DocumentNode}
	doc.AppendChild(&Node{Type: DoctypeNode, Data: "html"})
	doc.AppendChild(&Node{Type: CommentNode, Data: " hi "})
	if got := OuterHTML(doc); got != "<!DOCTYPE html><!-- hi -->" {
		t.Fatalf("got %q", got)
	}
}

func TestNodeTypeString(t *testing.T) {
	if DocumentNode.String() != "Document" || ElementNode.String() != "Element" {
		t.Fatalf("NodeType.String broken")
	}
	if NodeType(99).String() == "" {
		t.Fatalf("unknown NodeType should still print")
	}
}
