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
func Parse(src string) *dom.Node { return new(Slab).Parse(src, false) }

// ParseFragment parses an HTML fragment (such as an AJAX response used
// for innerHTML assignment) and returns a detached "#fragment" element
// holding the top-level nodes. No html/body wrapping is applied.
func ParseFragment(src string) *dom.Node { return new(Slab).Parse(src, true) }

// Parse is ParseFragment when fragment is set and Parse otherwise,
// carving the tree from s.
func (s *Slab) Parse(src string, fragment bool) *dom.Node {
	p := &parser{z: Tokenizer{src: src}, open: make(map[string]int), s: s}
	if fragment {
		return p.run(p.node(dom.ElementNode, "#fragment"))
	}
	doc := p.run(p.node(dom.DocumentNode, ""))
	p.ensureDocumentShape(doc)
	return doc
}

// SetInnerHTML replaces n's children with the parse of src. This is the
// DOM mutation behind the JavaScript `element.innerHTML = ...` action the
// AJAX pages use to swap in fetched content.
func SetInnerHTML(n *dom.Node, src string) {
	n.RemoveChildren()
	n.AdoptChildren(ParseFragment(src))
}

// A Slab is what the tree builder carves nodes and attributes from: chunks
// sized from the input still to parse, at about these many source bytes
// each, so a parse allocates a few chunks rather than one object per node.
// A parse first takes what the last one into its Slab left of a chunk, so
// the trees of one Slab live as long as the last of them: a page's parses
// die with the page anyway. Reset makes a Slab an arena.
type Slab struct {
	nodes chunk[dom.Node]
	attrs chunk[dom.Attribute]
}

const (
	bytesPerNode = 24
	bytesPerAttr = 48
	maxChunk     = 1024
)

// Reset hands every tree parsed into s back to it, zeroed. The next parses
// carve from the start of its last chunk again, or of a new one as large
// as all the parses since the last Reset took when they took more, so a
// loop that parses, reads and resets allocates only for its largest tree.
func (s *Slab) Reset() {
	s.nodes.reset()
	s.attrs.reset()
}

// chunk is the chunk a Slab carves one kind of item from: buf[:n] is
// carved, used items since the last reset.
type chunk[T any] struct {
	buf     []T
	n, used int
}

// take carves k items, first allocating a chunk of max(k, size) when fewer
// are left. Capacity is capped, as in dom.Clone, so that growing the
// window reallocates instead of running into the next one.
func (c *chunk[T]) take(k, size int) []T {
	if len(c.buf)-c.n < k {
		c.buf, c.n = make([]T, max(k, size)), 0
	}
	c.n, c.used = c.n+k, c.used+k
	return c.buf[c.n-k : c.n : c.n]
}

func (c *chunk[T]) reset() {
	if c.n == c.used {
		clear(c.buf[:c.n])
	} else {
		c.buf = make([]T, c.used)
	}
	c.n, c.used = 0, 0
}

type parser struct {
	z     Tokenizer
	stack []*dom.Node // open elements; stack[0] is the root
	// open counts the open elements per tag name, so that an end tag
	// nothing matches is dropped without scanning the stack.
	open map[string]int
	s    *Slab
}

// chunk returns how many items of bytesPer source bytes each the rest
// of the input holds, within [1, maxChunk].
func (p *parser) chunk(bytesPer int) int {
	return min((len(p.z.src)-p.z.pos)/bytesPer+1, maxChunk)
}

func (p *parser) node(t dom.NodeType, data string) *dom.Node {
	n := &p.s.nodes.take(1, p.chunk(bytesPerNode))[0]
	n.Type, n.Data = t, data
	return n
}

// attributes copies a tag's attributes into the current chunk.
func (p *parser) attributes(attrs []Attr) []dom.Attribute {
	if len(attrs) == 0 {
		return nil
	}
	out := p.s.attrs.take(len(attrs), p.chunk(bytesPerAttr))
	for i, a := range attrs {
		out[i] = dom.Attribute{Key: a.Key, Val: a.Val}
	}
	return out
}

// run parses the input into root and returns it.
func (p *parser) run(root *dom.Node) *dom.Node {
	p.stack = append(p.stack[:0], root)
	for {
		t := p.z.Next()
		switch t.Type {
		case ErrorToken:
			return root
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
