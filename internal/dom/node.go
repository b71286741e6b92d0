// Package dom implements the document object model used by the AJAX
// crawler. It provides an HTML element tree with the operations the
// crawler and the embedded JavaScript engine need: child manipulation,
// attribute access, element lookup by id and tag, text extraction,
// serialization, deep cloning for state snapshots, and canonical content
// hashing used for duplicate-state detection (thesis §3.2).
//
// The tree layout follows the pointer style of golang.org/x/net/html
// (parent, first/last child, prev/next sibling) so that insertion and
// removal are O(1) and traversal allocates nothing.
package dom

import (
	"fmt"
	"strconv"
	"strings"
)

// NodeType identifies the kind of a Node.
type NodeType uint8

// The node kinds understood by the model.
const (
	ErrorNode NodeType = iota
	DocumentNode
	ElementNode
	TextNode
	CommentNode
	DoctypeNode
)

var nodeTypeNames = [...]string{"Error", "Document", "Element", "Text", "Comment", "Doctype"}

// String returns a human-readable name for the node type.
func (t NodeType) String() string {
	if int(t) < len(nodeTypeNames) {
		return nodeTypeNames[t]
	}
	return fmt.Sprintf("NodeType(%d)", int(t))
}

// Attribute is a single key/value attribute of an element. Keys are
// stored lower-case.
type Attribute struct {
	Key string
	Val string
}

// Node is a node in the document tree. For ElementNode, Data holds the
// lower-case tag name; for TextNode and CommentNode it holds the text.
//
// A node caches the digest of its subtree (see CanonicalHash). The six
// mutators — AppendChild, RemoveChild, AdoptChildren, Readopt, SetAttr,
// RemoveAttr — invalidate it; assign Data, Attr or the link fields
// directly only on a node that has never been hashed, as the parser does
// while building. Attr's backing array belongs to its node alone (the
// parser and Clone cap their slab windows): its elements are written only
// by SetAttr, RemoveAttr and Revert, which copies the recorded clean
// attributes back into it.
type Node struct {
	Data string
	Attr []Attribute

	Parent      *Node
	FirstChild  *Node
	LastChild   *Node
	PrevSibling *Node
	NextSibling *Node

	// What a Clone's node was before its first edit since the last
	// Revert (see mark), and the next sibling the node had when its
	// parent's child list was last recorded: the clean list Revert
	// relinks and Readopt reattaches.
	undo      *undo
	cleanNext *Node

	digest Hash
	Type   NodeType
	hashed uint8 // digestDirty, digestValid or digestNone
	edits  uint8 // editSelf and editBelow marks, for Revert
	held   bool  // set by Hold, for Readopt
	cloned bool  // made by Clone: keeps undo records
}

// NewElement returns a detached element node with the given tag name and
// optional attributes given as alternating key, value strings.
func NewElement(tag string, kv ...string) *Node {
	n := &Node{Type: ElementNode, Data: strings.ToLower(tag)}
	for i := 0; i+1 < len(kv); i += 2 {
		n.SetAttr(kv[i], kv[i+1])
	}
	return n
}

// NewText returns a detached text node.
func NewText(text string) *Node {
	return &Node{Type: TextNode, Data: text}
}

// AppendChild adds c as the last child of n. It panics if c is already
// attached to a tree (callers must Remove it first) to surface bugs early.
func (n *Node) AppendChild(c *Node) {
	if c.Parent != nil || c.PrevSibling != nil || c.NextSibling != nil {
		panic("dom: AppendChild called on attached child")
	}
	n.invalidate()
	n.link(c)
}

// link wires the detached node c in as n's last child.
func (n *Node) link(c *Node) {
	last := n.LastChild
	if last != nil {
		last.NextSibling = c
	} else {
		n.FirstChild = c
	}
	n.LastChild = c
	c.Parent = n
	c.PrevSibling = last
}

// RemoveChild detaches c from n. It panics if c is not a child of n.
func (n *Node) RemoveChild(c *Node) {
	if c.Parent != n {
		panic("dom: RemoveChild called on a non-child")
	}
	n.unlink(c)
}

// unlink invalidates n and detaches c from it.
func (n *Node) unlink(c *Node) {
	n.invalidate()
	if c.PrevSibling != nil {
		c.PrevSibling.NextSibling = c.NextSibling
	} else {
		n.FirstChild = c.NextSibling
	}
	if c.NextSibling != nil {
		c.NextSibling.PrevSibling = c.PrevSibling
	} else {
		n.LastChild = c.PrevSibling
	}
	c.Parent = nil
	c.PrevSibling = nil
	c.NextSibling = nil
}

// RemoveChildren detaches all children of n.
func (n *Node) RemoveChildren() {
	for n.FirstChild != nil {
		n.RemoveChild(n.FirstChild)
	}
}

// AdoptChildren moves all of from's children to the end of n's in one
// splice. The moved subtrees keep their cached digests, so adopting the
// children of a hashed parse leaves only n and its ancestors to rehash.
// It panics if from is n.
func (n *Node) AdoptChildren(from *Node) {
	if from == n {
		panic("dom: AdoptChildren called on the node itself")
	}
	first := from.FirstChild
	if first == nil {
		return
	}
	from.invalidate()
	n.invalidate()
	for c := first; c != nil; c = c.NextSibling {
		c.Parent = n
	}
	if last := n.LastChild; last != nil {
		last.NextSibling, first.PrevSibling = first, last
	} else {
		n.FirstChild = first
	}
	n.LastChild = from.LastChild
	from.FirstChild, from.LastChild = nil, nil
}

// Readopt moves first and the siblings that followed it when an
// AdoptChildren took them from their unedited parent — the nodes of one
// fragment, which something since cut loose — back under n, and reports
// whether it did. It does so only when every one is detached, unedited
// since and never held (see Hold), so their content and digests are
// still the fragment's and no handle reaches them; otherwise it changes
// nothing. A nil first is the empty fragment. It allocates nothing.
func (n *Node) Readopt(first *Node) bool {
	for c := first; c != nil; c = c.cleanNext {
		if c.Parent != nil || c.edits != 0 || c.held {
			return false
		}
	}
	n.invalidate()
	for c := first; c != nil; c = c.cleanNext {
		n.link(c)
	}
	return true
}

// Hold marks n and its ancestors, for good, as reachable from outside
// the tree — a script's handle — so that Readopt never reattaches a copy
// that holds n. The walk stops at a node already held: one beneath an
// unheld ancestor got there by an edit, which Readopt refuses anyway.
func (n *Node) Hold() {
	for ; n != nil && !n.held; n = n.Parent {
		n.held = true
	}
}

// Attr lookup helpers.

// GetAttr returns the value of the attribute named key (case-insensitive)
// and whether it is present.
func (n *Node) GetAttr(key string) (string, bool) {
	key = strings.ToLower(key)
	for _, a := range n.Attr {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the attribute value or def when absent.
func (n *Node) AttrOr(key, def string) string {
	if v, ok := n.GetAttr(key); ok {
		return v
	}
	return def
}

// SetAttr sets (or adds) the attribute named key.
func (n *Node) SetAttr(key, val string) {
	key = strings.ToLower(key)
	n.invalidate()
	for i := range n.Attr {
		if n.Attr[i].Key == key {
			n.Attr[i].Val = val
			return
		}
	}
	n.Attr = append(n.Attr, Attribute{Key: key, Val: val})
}

// RemoveAttr deletes the attribute named key if present.
func (n *Node) RemoveAttr(key string) {
	key = strings.ToLower(key)
	for i := range n.Attr {
		if n.Attr[i].Key == key {
			n.invalidate()
			n.Attr = append(n.Attr[:i], n.Attr[i+1:]...)
			return
		}
	}
}

// ID returns the element's id attribute ("" when absent).
func (n *Node) ID() string { return n.AttrOr("id", "") }

// Walk visits n and all its descendants in document order. Returning
// false from fn stops the walk.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// ElementByID returns the first element in document order whose id
// attribute equals id, or nil.
func (n *Node) ElementByID(id string) *Node {
	var found *Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.ID() == id {
			found = c
			return false
		}
		return true
	})
	return found
}

// ElementsByTag returns all elements with the given tag name in document
// order. An empty tag matches every element.
func (n *Node) ElementsByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && (tag == "" || c.Data == tag) {
			out = append(out, c)
		}
		return true
	})
	return out
}

// Body returns the <body> element of a document tree, or nil.
func (n *Node) Body() *Node {
	els := n.ElementsByTag("body")
	if len(els) == 0 {
		return nil
	}
	return els[0]
}

// TextContent returns the concatenated text of all descendant text nodes,
// skipping script and style contents.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.eachText(func(s string) { b.WriteString(s) })
	return b.String()
}

// AppendText appends TextContent to dst: the raw data of the text nodes,
// script and style contents skipped.
func (n *Node) AppendText(dst []byte) []byte {
	n.eachText(func(s string) { dst = append(dst, s...) })
	return dst
}

// eachText calls f with the data of each text node under n in document
// order, skipping script and style contents.
func (n *Node) eachText(f func(string)) {
	switch n.Type {
	case TextNode:
		f(n.Data)
	case ElementNode:
		if n.Data == "script" || n.Data == "style" {
			return
		}
	case CommentNode, DoctypeNode:
		return
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		c.eachText(f)
	}
}

// VisibleText returns TextContent with runs of whitespace collapsed to
// single spaces and leading/trailing whitespace trimmed; this is the text
// the indexer sees for a state. A first walk measures the collapsed text,
// a second writes it, so a call allocates the string and nothing else.
func (n *Node) VisibleText() string {
	var w textWriter
	n.eachText(w.text)
	if w.n == 0 {
		return ""
	}
	size := w.n
	w = textWriter{write: true}
	w.b.Grow(size)
	n.eachText(w.text)
	return w.b.String()
}

// textWriter collapses whitespace across the text nodes it is fed: a
// whitespace run becomes one space, put only between two non-space
// bytes. It counts the collapsed length in n and, when write is set,
// writes the text to b.
type textWriter struct {
	b     strings.Builder
	write bool
	n     int
	space bool // whitespace seen since the last byte put
}

func (w *textWriter) text(s string) {
	for i := 0; i < len(s); {
		if isSpace(s[i]) {
			w.space = true
			i++
			continue
		}
		// Words joined by single spaces are collapsed already: put the
		// whole stretch at once.
		j := i + 1
		for j < len(s) && !(isSpace(s[j]) && (s[j] != ' ' || j+1 == len(s) || isSpace(s[j+1]))) {
			j++
		}
		if w.space && w.n > 0 {
			w.put(" ")
		}
		w.space = false
		w.put(s[i:j])
		i = j
	}
}

func (w *textWriter) put(s string) {
	w.n += len(s)
	if w.write {
		w.b.WriteString(s)
	}
}

// CollapseWhitespace collapses all whitespace runs in s to single spaces
// and trims the ends. A string already in that form is returned as is.
func CollapseWhitespace(s string) string {
	if isCollapsed(s) {
		return s
	}
	return string(appendCollapsed(make([]byte, 0, len(s)), s))
}

func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f')
}

func isCollapsed(s string) bool {
	afterSpace := true // so that a leading space fails
	for i := 0; i < len(s); i++ {
		if isSpace(s[i]) {
			if afterSpace || s[i] != ' ' {
				return false
			}
			afterSpace = true
		} else {
			afterSpace = false
		}
	}
	return !afterSpace || s == ""
}

// appendCollapsed appends CollapseWhitespace(s) to dst. The whitespace
// set is ASCII, so scanning bytes never splits a multi-byte rune.
func appendCollapsed(dst []byte, s string) []byte {
	start := len(dst)
	space := false
	for i := 0; i < len(s); i++ {
		if isSpace(s[i]) {
			space = true
			continue
		}
		if space && len(dst) > start {
			dst = append(dst, ' ')
		}
		space = false
		dst = append(dst, s[i])
	}
	return dst
}

// Clone returns a deep copy of n (detached from any parent), cached
// digests included and edit and hold marks not. A copy's nodes keep undo
// records, so Revert can roll it back and Targets read what it was. The
// copy's nodes and attributes are carved from one slab each, so a clone
// costs two allocations whatever the tree's size.
func (n *Node) Clone() *Node {
	var nodes, attrs int
	n.Walk(func(d *Node) bool {
		nodes++
		attrs += len(d.Attr)
		return true
	})
	s := cloneSlab{make([]Node, nodes), make([]Attribute, attrs)}
	return s.clone(n)
}

type cloneSlab struct {
	nodes []Node
	attrs []Attribute
}

func (s *cloneSlab) clone(n *Node) *Node {
	c := &s.nodes[0]
	s.nodes = s.nodes[1:]
	c.Type, c.Data, c.digest, c.hashed, c.cloned = n.Type, n.Data, n.digest, n.hashed, true
	if k := len(n.Attr); k > 0 {
		// Capacity is capped so that a later SetAttr on the copy
		// reallocates instead of growing into the next node's attributes.
		c.Attr = s.attrs[:k:k]
		s.attrs = s.attrs[k:]
		copy(c.Attr, n.Attr)
	}
	for k := n.FirstChild; k != nil; k = k.NextSibling {
		c.link(s.clone(k))
	}
	for k := c.FirstChild; k != nil; k = k.NextSibling {
		k.cleanNext = k.NextSibling
	}
	return c
}

// Path returns a stable structural address of n within its tree, such as
// "html/body/div[2]/a[0]". It is used to annotate transition sources so
// that transitions can be replayed on a reconstructed DOM.
func (n *Node) Path() string {
	var buf [128]byte
	return string(n.appendPath(buf[:0]))
}

func (n *Node) appendPath(b []byte) []byte {
	if n.Parent == nil {
		if n.Type == DocumentNode {
			return b
		}
		return append(b, n.Data...)
	}
	idx := 0
	for s := n.Parent.FirstChild; s != nil && s != n; s = s.NextSibling {
		if s.Type == ElementNode {
			idx++
		}
	}
	b = n.Parent.appendPath(b)
	if len(b) > 0 {
		b = append(b, '/')
	}
	b = append(b, n.Data...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(idx), 10)
	return append(b, ']')
}

// ByPath resolves a Path string produced by (*Node).Path relative to n
// (normally the document node). It returns nil when the path does not
// resolve.
func (n *Node) ByPath(path string) *Node {
	if path == "" {
		return n
	}
	cur := n
	for rest, more := path, true; more; {
		var seg string
		seg, rest, more = strings.Cut(rest, "/")
		name := seg
		idx := 0
		if i := strings.IndexByte(seg, '['); i >= 0 {
			name = seg[:i]
			var err error
			if idx, err = strconv.Atoi(strings.TrimSuffix(seg[i+1:], "]")); err != nil {
				return nil
			}
		}
		var next *Node
		count := 0
		for c := cur.FirstChild; c != nil; c = c.NextSibling {
			if c.Type != ElementNode {
				continue
			}
			if count == idx {
				if c.Data != name {
					return nil
				}
				next = c
				break
			}
			count++
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}
