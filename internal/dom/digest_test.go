package dom_test

import (
	"math/rand"
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/webapp"
)

// rebuild copies a tree node by node through the public API, so the copy
// has never been hashed: its CanonicalHash is computed from scratch and
// owes nothing to the original's cache.
func rebuild(n *dom.Node) *dom.Node {
	c := &dom.Node{Type: n.Type, Data: n.Data, Attr: append([]dom.Attribute(nil), n.Attr...)}
	for k := n.FirstChild; k != nil; k = k.NextSibling {
		c.AppendChild(rebuild(k))
	}
	return c
}

// checkDigestInvalidation parses src, then reads ops as a program of
// mutations — the mutators, html.SetInnerHTML, innerHTML writes that
// reattach what an earlier write or RemoveChild cut loose
// (fragments.write), Clone — interleaved
// with hashes of arbitrary subtrees (which leave the cache half clean,
// half dirty). It checks the two properties the crawler's state identity
// rests on: the cached root digest always equals the digest of a
// never-hashed rebuild, and against an earlier version of the document
// digest equality coincides with dom.Equal.
func checkDigestInvalidation(t *testing.T, src string, ops []byte) {
	doc := html.Parse(src)
	earlier := rebuild(doc)

	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	words := []string{"id", "class", "a\x01b\x04", "x  y", " ", "", "<b>t</b>", "<p id=q>r<!--c--></p> ", "<script>s</script>"}
	word := func() string { return words[next()%len(words)] }
	frags := fragments{}

	for len(ops) > 0 {
		var nodes, elems []*dom.Node
		doc.Walk(func(n *dom.Node) bool {
			nodes = append(nodes, n)
			if n.Type == dom.ElementNode {
				elems = append(elems, n)
			}
			return true
		})
		node := func() *dom.Node { return nodes[next()%len(nodes)] }
		elem := func() *dom.Node { return elems[next()%len(elems)] } // html and body always exist
		op := next() % 11
		if len(nodes) > 2000 && op != 3 {
			op = 9 // big enough: only shrink or hash from here on
		}
		switch op {
		case 0:
			elem().AppendChild(dom.NewElement("div", word(), word()))
		case 1:
			elem().AppendChild(dom.NewText(word()))
		case 2:
			// A move, within one parent or across the tree.
			if n, dst := node(), elem(); n.Parent != nil && !within(dst, n) {
				n.Parent.RemoveChild(n)
				dst.AppendChild(n)
			}
		case 3:
			if n := node(); n.Parent != nil && n.Data != "html" && n.Data != "body" {
				n.Parent.RemoveChild(n)
			}
		case 4:
			elem().SetAttr(word(), word())
		case 5:
			if n := elem(); len(n.Attr) > 0 {
				n.RemoveAttr(n.Attr[next()%len(n.Attr)].Key)
			}
		case 6:
			html.SetInnerHTML(elem(), word()+word())
		case 7:
			// A copy of one subtree, digests and all, under another element.
			elem().AppendChild(node().Clone())
		case 8:
			doc = doc.Clone()
		case 9:
			dom.CanonicalHash(node())
		case 10:
			frags.write(t, elem(), word()+word(), nil)
		}
		if next()%4 == 0 {
			earlier = rebuild(doc)
		}
		// Not after every op: several mutations must also pile up on one
		// half-dirty cache before the root is asked.
		if next()%3 == 0 || len(ops) == 0 {
			if got, want := dom.CanonicalHash(doc), dom.CanonicalHash(rebuild(doc)); got != want {
				t.Fatalf("cached root digest %v differs from a fresh rebuild's %v", got, want)
			}
		}
	}
	if !dom.Equal(doc, rebuild(doc)) {
		t.Fatalf("rebuild is not Equal to its source")
	}
	if same, equal := dom.CanonicalHash(doc) == dom.CanonicalHash(earlier), dom.Equal(doc, earlier); same != equal {
		t.Fatalf("digest equality %v but dom.Equal %v", same, equal)
	}
}

func watchPage() string {
	cfg := webapp.DefaultConfig(4, 17)
	cfg.NoisyDecor = true
	site := webapp.New(cfg)
	return site.RenderWatchPage(site.Video(0))
}

func TestDigestInvalidation(t *testing.T) {
	src := watchPage()
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 20+r.Intn(200))
		r.Read(ops)
		checkDigestInvalidation(t, src, ops)
	}
}

func FuzzDigestInvalidation(f *testing.F) {
	src := watchPage()
	f.Add(src, []byte{6, 3, 7, 8, 9, 0, 4, 1, 2, 0, 5, 5})
	f.Add(src, []byte{4, 10, 0, 1, 0, 5, 10, 0, 0})
	f.Add(src, []byte{9, 0, 0, 10, 2, 0, 0, 10, 5, 1, 1, 3, 4, 0})
	f.Add(`<p>a<b></b></p><p>a&#1;b&#4;</p><a x=1 x=2 X=1>t</a>`, []byte{9, 1, 3, 2, 7, 1, 2, 8})
	f.Fuzz(func(t *testing.T, src string, ops []byte) {
		if len(src) > 1<<14 || len(ops) > 1<<9 {
			t.Skip() // each op rebuilds and rehashes the document
		}
		checkDigestInvalidation(t, src, ops)
	})
}
