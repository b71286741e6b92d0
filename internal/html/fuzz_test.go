package html

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/webapp"
)

// checkParse holds one input to what the crawler relies on from the
// parser, whatever the bytes:
//   - the tree has at most one node per input byte, plus the document,
//     html and body that Parse may synthesize;
//   - a parse is stable under serialization: after one Parse → OuterHTML
//     round, a second round yields an equal digest;
//   - elements do not share attribute storage: a SetAttr on any element
//     leaves every other element's attributes as they were.
func checkParse(t *testing.T, src string) {
	doc := Parse(src)
	var elems []*dom.Node
	nodes := 0
	doc.Walk(func(n *dom.Node) bool {
		nodes++
		if n.Type == dom.ElementNode {
			elems = append(elems, n)
		}
		return true
	})
	if nodes > len(src)+3 {
		t.Fatalf("%d nodes from %d bytes", nodes, len(src))
	}

	second := Parse(dom.OuterHTML(doc))
	third := Parse(dom.OuterHTML(second))
	if dom.CanonicalHash(second) != dom.CanonicalHash(third) {
		t.Fatalf("not stable under serialization:\n%s\n%s", dom.OuterHTML(second), dom.OuterHTML(third))
	}

	attrs := make([][]dom.Attribute, len(elems))
	for i, el := range elems {
		attrs[i] = slices.Clone(el.Attr)
	}
	for i, el := range elems {
		el.SetAttr("data-fuzz", "1")
		attrs[i] = slices.Clone(el.Attr)
		for j, other := range elems {
			if !slices.Equal(other.Attr, attrs[j]) {
				t.Fatalf("SetAttr on <%s> changed <%s>'s attributes to %v", el.Data, other.Data, other.Attr)
			}
		}
	}
}

// unmatchedEndTags is the shape of input that made end tags quadratic:
// a deep stack of open elements and a run of end tags none of them match.
func unmatchedEndTags(n int) string {
	return strings.Repeat("</b>", n) + strings.Repeat("<b>", n) + strings.Repeat("</i>", n)
}

func TestParseUnmatchedEndTagsLinear(t *testing.T) {
	src := unmatchedEndTags(100_000) // 1.1 MB; it took 64 s
	start := time.Now()
	doc := Parse(src)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Parse of %d bytes took %v", len(src), d)
	}
	depth := 0
	for n := doc.Body(); n.FirstChild != nil; n = n.FirstChild {
		depth++
	}
	if depth != 100_000 {
		t.Fatalf("%d nested <b>, want 100000", depth)
	}
}

func FuzzParseHTML(f *testing.F) {
	site := webapp.New(webapp.DefaultConfig(4, 17))
	v := site.Video(0)
	f.Add(site.RenderWatchPage(v))
	f.Add(site.RenderCommentFragment(v, 1))
	f.Add(unmatchedEndTags(100))
	f.Add(`<div><br/ ><a /x href="u" / y=1>t</a></div>`)
	f.Add(`<ul><li id=a class="x y">one<li>two</ul><!-- c --><p>a&amp;b<table><tr><td>1<td x=1 x=2>2</table>`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			t.Skip() // the attribute check is quadratic in elements
		}
		checkParse(t, src)
		checkSlabs(t, src)
	})
}

// dump renders a tree node by node: type, data and attributes, indented
// by depth.
func dump(n *dom.Node) string {
	var b strings.Builder
	var walk func(n *dom.Node, depth int)
	walk = func(n *dom.Node, depth int) {
		fmt.Fprintf(&b, "%*s%v %q %q\n", 2*depth, "", n.Type, n.Data, n.Attr)
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// sameDump reports whether dump(a) == dump(b), without rendering either.
func sameDump(a, b *dom.Node) bool {
	if a.Type != b.Type || a.Data != b.Data || !slices.Equal(a.Attr, b.Attr) {
		return false
	}
	ac, bc := a.FirstChild, b.FirstChild
	for ; ac != nil && bc != nil; ac, bc = ac.NextSibling, bc.NextSibling {
		if !sameDump(ac, bc) {
			return false
		}
	}
	return ac == nil && bc == nil
}

// nodeState is what a node carries for rollback, Readopt and its digest
// cache, with its cleanNext link as a document-order position (-1: nil,
// or outside the tree).
type nodeState struct {
	undo, held, cloned, digest bool
	next                       int
	edits, hashed              uint64
}

// stateFields are the indexes of those fields in dom.Node.
var stateFields = func() (f [7]int) {
	t := reflect.TypeOf(dom.Node{})
	for i, name := range []string{"undo", "cleanNext", "held", "edits", "cloned", "hashed", "digest"} {
		sf, ok := t.FieldByName(name)
		if !ok {
			panic("dom.Node has no field " + name)
		}
		f[i] = sf.Index[0]
	}
	return f
}()

// rollbackState lists root's nodes' states in document order, read
// through reflection.
func rollbackState(root *dom.Node) []nodeState {
	var nodes []*dom.Node
	root.Walk(func(n *dom.Node) bool { nodes = append(nodes, n); return true })
	pos := make(map[uintptr]int, len(nodes))
	for i, n := range nodes {
		pos[reflect.ValueOf(n).Pointer()] = i
	}
	out := make([]nodeState, len(nodes))
	for i, n := range nodes {
		v, f := reflect.ValueOf(n).Elem(), stateFields
		next, ok := pos[v.Field(f[1]).Pointer()]
		if !ok {
			next = -1
		}
		out[i] = nodeState{undo: !v.Field(f[0]).IsNil(), next: next, held: v.Field(f[2]).Bool(),
			edits: v.Field(f[3]).Uint(), cloned: v.Field(f[4]).Bool(), hashed: v.Field(f[5]).Uint(),
			digest: !v.Field(f[6]).IsZero()}
	}
	return out
}

// scribble leaves on a parsed tree every mark the crawl can: digests, a
// snapshot made in place (cloned, cleanNext), an edit with its undo
// record, and a hold.
func scribble(root *dom.Node) {
	dom.CanonicalHash(root)
	dom.Own(root)
	root.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			n.SetAttr("data-scribble", "1")
			n.Hold()
		}
		return true
	})
	dom.CanonicalHash(root)
}

// checkSlabs holds parses that reuse storage to fresh ones of the same
// input. src is cut into three parts. One arena parses each part and src
// as documents, marked all over and Reset after each; one Slab parses the
// first part as a document and the others as fragments, the document read
// again after both. Every tree must equal the fresh parse by dump, digest
// and, before it is hashed, rollback state: a node carved from a reused
// chunk carries nothing over from the tree that had it before.
func checkSlabs(t *testing.T, src string) {
	parts := []string{src[:len(src)/3], src[len(src)/3 : 2*len(src)/3], src[2*len(src)/3:]}
	same := func(what string, got, want *dom.Node) {
		t.Helper()
		if g, w := rollbackState(got), rollbackState(want); !slices.Equal(g, w) {
			t.Fatalf("%s: rollback state differs from a fresh parse's:\n%+v\nwant\n%+v", what, g, w)
		}
		if !sameDump(got, want) {
			t.Fatalf("%s: tree differs from a fresh parse's:\n%s\nwant\n%s", what, dump(got), dump(want))
		}
		if dom.CanonicalHash(got) != dom.CanonicalHash(want) {
			t.Fatalf("%s: digest differs from a fresh parse's", what)
		}
	}

	var arena Slab
	for i, in := range append(parts, src) {
		doc := arena.Parse(in, false)
		same(fmt.Sprintf("arena parse %d", i), doc, Parse(in))
		scribble(doc)
		arena.Reset()
	}

	var slab Slab
	doc, fresh := slab.Parse(parts[0], false), Parse(parts[0])
	same("slab document", doc, fresh)
	same("slab fragment 1", slab.Parse(parts[1], true), ParseFragment(parts[1]))
	same("slab fragment 2", slab.Parse(parts[2], true), ParseFragment(parts[2]))
	if !sameDump(doc, fresh) {
		t.Fatalf("the document changed under later parses into its Slab:\n%s\nwant\n%s", dump(doc), dump(fresh))
	}
}
