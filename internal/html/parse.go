package html

import (
	"slices"

	"ajaxcrawl/internal/dom"
)

// impliedEndTags lists, per tag, the open tags that an incoming start tag
// implicitly closes. E.g. a new <li> closes an open <li>.
var impliedEndTags = map[string][]string{
	"li":       {"li"},
	"dt":       {"dt", "dd"},
	"dd":       {"dt", "dd"},
	"p":        {"p"},
	"option":   {"option"},
	"optgroup": {"option", "optgroup"},
	"tr":       {"tr", "td", "th"},
	"td":       {"td", "th"},
	"th":       {"td", "th"},
	"thead":    {"tr", "td", "th", "tbody", "thead", "tfoot"},
	"tbody":    {"tr", "td", "th", "tbody", "thead", "tfoot"},
	"tfoot":    {"tr", "td", "th", "tbody", "thead", "tfoot"},
	"h1":       {"p"},
	"h2":       {"p"},
	"h3":       {"p"},
	"h4":       {"p"},
	"h5":       {"p"},
	"h6":       {"p"},
	"ul":       {"p"},
	"ol":       {"p"},
	"div":      {"p"},
	"table":    {"p"},
}

// Parse parses a full HTML document and returns a dom DocumentNode. The
// parse is lenient and never fails; garbage input produces a tree with
// whatever could be salvaged. An <html> and <body> element are
// synthesized when missing so that callers can always rely on doc.Body().
func Parse(src string) *dom.Node {
	p := newParser(src)
	doc := p.node(dom.DocumentNode, "")
	p.run(doc)
	p.ensureDocumentShape(doc)
	return doc
}

// ParseFragment parses an HTML fragment (such as an AJAX response used
// for innerHTML assignment) and returns a detached "#fragment" element
// holding the top-level nodes. No html/body wrapping is applied.
func ParseFragment(src string) *dom.Node {
	p := newParser(src)
	root := p.node(dom.ElementNode, "#fragment")
	p.run(root)
	return root
}

// SetInnerHTML replaces n's children with the parse of src. This is the
// DOM mutation behind the JavaScript `element.innerHTML = ...` action the
// AJAX pages use to swap in fetched content.
func SetInnerHTML(n *dom.Node, src string) {
	n.RemoveChildren()
	n.AdoptChildren(ParseFragment(src))
}

// The tree builder carves its nodes and attributes from chunks sized from
// the input still to parse, at about these many source bytes each (a
// small fragment carves a small chunk), so a parse allocates a few chunks
// rather than one object per node. A parsed tree lives and dies with its
// page, which is the lifetime a chunk has anyway.
const (
	bytesPerNode = 24
	bytesPerAttr = 48
	maxChunk     = 1024
)

type parser struct {
	z     Tokenizer
	stack []*dom.Node // open elements; stack[0] is the root
	// open counts the open elements per tag name, so that an end tag
	// nothing matches is dropped without scanning the stack.
	open  map[string]int
	nodes []dom.Node      // the rest of the current node chunk
	attrs []dom.Attribute // the rest of the current attribute chunk
}

func newParser(src string) *parser {
	return &parser{z: Tokenizer{src: src}, open: make(map[string]int)}
}

// chunk returns how many items of bytesPer source bytes each the rest
// of the input holds, within [1, maxChunk].
func (p *parser) chunk(bytesPer int) int {
	return min((len(p.z.src)-p.z.pos)/bytesPer+1, maxChunk)
}

func (p *parser) node(t dom.NodeType, data string) *dom.Node {
	if len(p.nodes) == 0 {
		p.nodes = make([]dom.Node, p.chunk(bytesPerNode))
	}
	n := &p.nodes[0]
	p.nodes = p.nodes[1:]
	n.Type, n.Data = t, data
	return n
}

// attributes copies a tag's attributes into the current chunk. Capacity
// is capped, as in dom.Clone, so that a later SetAttr reallocates instead
// of growing into the next element's attributes.
func (p *parser) attributes(attrs []Attr) []dom.Attribute {
	k := len(attrs)
	if k == 0 {
		return nil
	}
	if len(p.attrs) < k {
		p.attrs = make([]dom.Attribute, max(k, p.chunk(bytesPerAttr)))
	}
	out := p.attrs[:k:k]
	p.attrs = p.attrs[k:]
	for i, a := range attrs {
		out[i] = dom.Attribute{Key: a.Key, Val: a.Val}
	}
	return out
}

func (p *parser) run(root *dom.Node) {
	p.stack = append(p.stack[:0], root)
	for {
		t := p.z.Next()
		switch t.Type {
		case ErrorToken:
			return
		case TextToken:
			if t.Data != "" {
				link(p.top(), p.node(dom.TextNode, t.Data))
			}
		case CommentToken:
			link(p.top(), p.node(dom.CommentNode, t.Data))
		case DoctypeToken:
			link(p.top(), p.node(dom.DoctypeNode, t.Data))
		case StartTagToken, SelfClosingTagToken:
			p.startTag(t)
		case EndTagToken:
			p.endTag(t.Data)
		}
	}
}

func (p *parser) top() *dom.Node { return p.stack[len(p.stack)-1] }

// link makes c n's last child through the link fields, as a tree never
// hashed allows, so that a fragment's parse reaches its caller unedited:
// with no edit mark for Readopt to refuse.
func link(n, c *dom.Node) {
	if c.PrevSibling = n.LastChild; n.LastChild != nil {
		n.LastChild.NextSibling = c
	} else {
		n.FirstChild = c
	}
	n.LastChild, c.Parent = c, n
}

// push and pop are the only changes to the stack of open elements.
func (p *parser) push(el *dom.Node) {
	p.stack = append(p.stack, el)
	p.open[el.Data]++
}

func (p *parser) pop() {
	p.open[p.top().Data]--
	p.stack = p.stack[:len(p.stack)-1]
}

func (p *parser) startTag(t Token) {
	if closes, ok := impliedEndTags[t.Data]; ok {
		p.closeImplied(closes)
	}
	el := p.node(dom.ElementNode, t.Data)
	el.Attr = p.attributes(t.Attr)
	link(p.top(), el)
	if t.Type == SelfClosingTagToken || dom.IsVoidElement(t.Data) {
		return
	}
	p.push(el)
}

// closeImplied pops open elements whose tags are in closes, but only if
// one of them is the current innermost element chain (stop at structural
// boundaries like table/ul for safety).
func (p *parser) closeImplied(closes []string) {
	for len(p.stack) > 1 && slices.Contains(closes, p.top().Data) {
		p.pop()
	}
}

// endTag pops through the innermost open element named name. An end tag
// that matches no open element is ignored, in constant time: every
// element a scan passes is popped, so end tags cost O(1) amortized.
func (p *parser) endTag(name string) {
	if p.open[name] == 0 {
		return
	}
	for p.top().Data != name {
		p.pop()
	}
	p.pop()
}

// ensureDocumentShape guarantees the document has html > body structure,
// moving stray top-level content into the body. head children (title,
// meta, link, script found before body content) stay in head when an
// explicit head exists; otherwise everything goes into body, which is
// sufficient for crawling purposes.
func (p *parser) ensureDocumentShape(doc *dom.Node) {
	html := p.ensureChild(doc, "html", func(c *dom.Node) bool { return c.Type == dom.DoctypeNode })
	p.ensureChild(html, "body", func(c *dom.Node) bool { return c.Type == dom.ElementNode && c.Data == "head" })
}

// ensureChild returns parent's first child element named tag. When there
// is none it makes one, moves every other child under it except those
// keep holds, and appends it to parent.
func (p *parser) ensureChild(parent *dom.Node, tag string, keep func(*dom.Node) bool) *dom.Node {
	for c := parent.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == dom.ElementNode && c.Data == tag {
			return c
		}
	}
	el := p.node(dom.ElementNode, tag)
	for c := parent.FirstChild; c != nil; {
		next := c.NextSibling
		if !keep(c) {
			parent.RemoveChild(c)
			el.AppendChild(c)
		}
		c = next
	}
	parent.AppendChild(el)
	return el
}
