package dom

import "strings"

// voidElements are HTML elements that never have children or end tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements are elements whose content is emitted verbatim.
var rawTextElements = map[string]bool{
	"script": true, "style": true,
}

// IsVoidElement reports whether tag is an HTML void element.
func IsVoidElement(tag string) bool { return voidElements[tag] }

var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", `"`, "&quot;", "<", "&lt;", ">", "&gt;")
)

// EscapeText escapes text-node content for HTML output.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes an attribute value for double-quoted HTML output.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }

// render writes the HTML serialization of n to b.
func render(b *strings.Builder, n *Node) {
	switch n.Type {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			render(b, c)
		}
	case DoctypeNode:
		b.WriteString("<!DOCTYPE " + n.Data + ">")
	case CommentNode:
		b.WriteString("<!--" + n.Data + "-->")
	case TextNode:
		if n.Parent != nil && n.Parent.Type == ElementNode && rawTextElements[n.Parent.Data] {
			b.WriteString(n.Data)
		} else {
			b.WriteString(EscapeText(n.Data))
		}
	case ElementNode:
		b.WriteString("<" + n.Data)
		for _, a := range n.Attr {
			b.WriteString(" " + a.Key + `="` + EscapeAttr(a.Val) + `"`)
		}
		b.WriteString(">")
		if voidElements[n.Data] {
			return
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			render(b, c)
		}
		b.WriteString("</" + n.Data + ">")
	}
}

// OuterHTML returns the HTML serialization of n itself.
func OuterHTML(n *Node) string {
	var b strings.Builder
	render(&b, n)
	return b.String()
}

// InnerHTML returns the HTML serialization of n's children.
func InnerHTML(n *Node) string {
	var b strings.Builder
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		render(&b, c)
	}
	return b.String()
}
