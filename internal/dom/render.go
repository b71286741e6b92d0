package dom

import (
	"io"
	"strings"
)

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

// IsRawTextElement reports whether tag content is raw text (not escaped,
// no child elements).
func IsRawTextElement(tag string) bool { return rawTextElements[tag] }

var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", `"`, "&quot;", "<", "&lt;", ">", "&gt;")
)

// EscapeText escapes text-node content for HTML output.
func EscapeText(s string) string { return textEscaper.Replace(s) }

// EscapeAttr escapes an attribute value for double-quoted HTML output.
func EscapeAttr(s string) string { return attrEscaper.Replace(s) }

// Render writes the HTML serialization of n to w.
func Render(w io.Writer, n *Node) error {
	sw, ok := w.(io.StringWriter)
	if !ok {
		sb := &strings.Builder{}
		if err := render(sb, n); err != nil {
			return err
		}
		_, err := io.WriteString(w, sb.String())
		return err
	}
	return render(sw, n)
}

func render(w io.StringWriter, n *Node) error {
	switch n.Type {
	case DocumentNode:
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if err := render(w, c); err != nil {
				return err
			}
		}
		return nil
	case DoctypeNode:
		_, err := w.WriteString("<!DOCTYPE " + n.Data + ">")
		return err
	case CommentNode:
		_, err := w.WriteString("<!--" + n.Data + "-->")
		return err
	case TextNode:
		if n.Parent != nil && n.Parent.Type == ElementNode && rawTextElements[n.Parent.Data] {
			_, err := w.WriteString(n.Data)
			return err
		}
		_, err := w.WriteString(EscapeText(n.Data))
		return err
	case ElementNode:
		if _, err := w.WriteString("<" + n.Data); err != nil {
			return err
		}
		for _, a := range n.Attr {
			if _, err := w.WriteString(" " + a.Key + `="` + EscapeAttr(a.Val) + `"`); err != nil {
				return err
			}
		}
		if _, err := w.WriteString(">"); err != nil {
			return err
		}
		if voidElements[n.Data] {
			return nil
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if err := render(w, c); err != nil {
				return err
			}
		}
		_, err := w.WriteString("</" + n.Data + ">")
		return err
	}
	return nil
}

// OuterHTML returns the HTML serialization of n itself.
func OuterHTML(n *Node) string {
	var b strings.Builder
	render(&b, n) //nolint:errcheck // strings.Builder never errors
	return b.String()
}

// InnerHTML returns the HTML serialization of n's children.
func InnerHTML(n *Node) string {
	var b strings.Builder
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		render(&b, c) //nolint:errcheck
	}
	return b.String()
}
