package html

import (
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
	})
}
