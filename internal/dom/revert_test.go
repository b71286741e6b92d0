package dom_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/html"
)

// TestNodeSize pins a node at 136 bytes: the undo record and the clean
// next link Revert relinks cost 16, and the type byte moved into the
// padding after the digest state, edit marks and the held and cloned
// bits paid back 8.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(dom.Node{}); got != 136 {
		t.Fatalf("unsafe.Sizeof(dom.Node{}) = %d, want 136", got)
	}
}

// dump serializes every node with its type, data and attributes in
// order, including what OuterHTML leaves out (children of void elements),
// so two dumps are equal only for identical trees.
func dump(n *dom.Node) string {
	var b strings.Builder
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		fmt.Fprintf(&b, "(%d %q", n.Type, n.Data)
		for _, a := range n.Attr {
			fmt.Fprintf(&b, " %q=%q", a.Key, a.Val)
		}
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			walk(c)
		}
		b.WriteByte(')')
	}
	walk(n)
	return b.String()
}

// within reports whether n is a or lies beneath it.
func within(n, a *dom.Node) bool {
	for ; n != nil; n = n.Parent {
		if n == a {
			return true
		}
	}
	return false
}

// fragments models browser.Page.setInnerHTML on the dom API: a write
// reattaches the nodes the last write of its source adopted when Readopt
// allows it, else adopts the children of a fresh, hashed parse, whose
// first node it keeps.
type fragments map[string]*dom.Node

// write replaces n's children with the parse of src and checks that the
// written nodes equal an uncached parse's children, digests included, and
// that no node beneath them is in held.
func (fs fragments) write(t *testing.T, n *dom.Node, src string, held map[*dom.Node]bool) {
	t.Helper()
	n.RemoveChildren()
	if first, ok := fs[src]; !ok || !n.Readopt(first) {
		parse := html.ParseFragment(src)
		dom.CanonicalHash(parse)
		fs[src] = parse.FirstChild
		n.AdoptChildren(parse)
	}
	c, w := n.FirstChild, html.ParseFragment(src).FirstChild
	for ; c != nil && w != nil; c, w = c.NextSibling, w.NextSibling {
		if dump(c) != dump(w) || dom.CanonicalHash(c) != dom.CanonicalHash(w) {
			t.Fatalf("write of %q gave %s (digest %v), an uncached parse %s (%v)", src, dump(c), dom.CanonicalHash(c), dump(w), dom.CanonicalHash(w))
		}
		c.Walk(func(d *dom.Node) bool {
			if held[d] {
				t.Fatalf("write of %q reattached a held node %q", src, d.Data)
			}
			return true
		})
	}
	if c != nil || w != nil {
		t.Fatalf("write of %q: the written child list and an uncached parse's differ in length", src)
	}
}

// checkRevert parses src into a snapshot, clones it, and reads ops as
// rounds of edits to the clone, each round ended by a Revert: the
// mutators, moves, attribute reorders, whitespace-only text, comments,
// innerHTML writes (fragments.write, which reattaches what a Revert cut
// loose), edits to the root, handles a script takes (Hold), and nodes an
// earlier edit or Revert cut loose — edited while detached, then brought
// back, as a handle a script kept in a global can be. Hashes of arbitrary
// subtrees fall in between or not.
// After each Revert the clone must equal the snapshot byte for byte, carry
// the digest of a never-hashed rebuild, hold no edit mark and consist of
// exactly the nodes Clone made; every node cut loose must carry its own
// rebuild's digest; and the snapshot must not move.
func checkRevert(t *testing.T, src string, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	snap := html.Parse(src)
	if next()%2 == 0 {
		dom.CanonicalHash(snap) // as Page.Snapshot does; an unhashed snapshot must work too
	}
	want, wantHTML, wantDigest := dump(snap), dom.OuterHTML(snap), dom.CanonicalHash(rebuild(snap))
	words := []string{"id", "class", "x  y", " ", "\n\t", "", "<b>t</b>", "<p id=q>r<!--c--></p> ", "<script>s</script>"}
	word := func() string { return words[next()%len(words)] }
	var limbo []*dom.Node
	frags, held := fragments{}, map[*dom.Node]bool{}

	live := snap.Clone()
	clean := map[*dom.Node]bool{}
	live.Walk(func(n *dom.Node) bool { clean[n] = true; return true })
	for round := 0; round < 8 && len(ops) > 0; round++ {
		for steps := 1 + next()%12; steps > 0 && len(ops) > 0; steps-- {
			var nodes, elems []*dom.Node
			live.Walk(func(n *dom.Node) bool {
				nodes = append(nodes, n)
				if n.Type == dom.ElementNode {
					elems = append(elems, n)
				}
				return true
			})
			if len(elems) == 0 {
				elems = []*dom.Node{live}
			}
			node := func() *dom.Node { return nodes[next()%len(nodes)] }
			elem := func() *dom.Node { return elems[next()%len(elems)] }
			cut := func(n *dom.Node) {
				n.Parent.RemoveChild(n)
				if len(limbo) < 32 {
					limbo = append(limbo, n)
				}
			}
			switch next() % 16 {
			case 0:
				elem().AppendChild(dom.NewElement("div", word(), word()))
			case 1:
				elem().AppendChild(dom.NewText(word()))
			case 2:
				elem().AppendChild(&dom.Node{Type: dom.CommentNode, Data: word()})
			case 3:
				if n := node(); n.Parent != nil {
					cut(n)
				}
			case 4:
				// A move, within one parent or across the tree.
				if n, dst := node(), elem(); n.Parent != nil && !within(dst, n) {
					n.Parent.RemoveChild(n)
					dst.AppendChild(n)
				}
			case 5:
				elem().SetAttr(word(), word())
			case 6:
				if n := elem(); len(n.Attr) > 0 {
					n.RemoveAttr(n.Attr[next()%len(n.Attr)].Key)
				}
			case 7:
				// Remove and re-add: same attributes, another order.
				if n := elem(); len(n.Attr) > 0 {
					a := n.Attr[next()%len(n.Attr)]
					n.RemoveAttr(a.Key)
					n.SetAttr(a.Key, a.Val)
				}
			case 8:
				frags.write(t, elem(), word()+word(), held)
			case 9:
				if n, from := elem(), elem(); from != n && !within(n, from) {
					n.AdoptChildren(from)
				}
			case 10:
				dom.CanonicalHash(node())
			case 11:
				if len(limbo) > 0 {
					if l, dst := limbo[next()%len(limbo)], elem(); !within(dst, l) {
						if l.Parent != nil {
							l.Parent.RemoveChild(l)
						}
						dst.AppendChild(l)
					}
				}
			case 12:
				if len(limbo) > 0 {
					l := limbo[next()%len(limbo)]
					l.SetAttr(word(), word())
					l.AppendChild(dom.NewText(word()))
				}
			case 13:
				// A textContent write.
				n := elem()
				n.RemoveChildren()
				n.AppendChild(dom.NewText(word()))
			case 14:
				if next()%4 == 0 {
					live.AppendChild(&dom.Node{Type: dom.CommentNode, Data: "root"})
				}
			case 15:
				// A handle a script takes and may keep past the Revert.
				n := node()
				n.Hold()
				held[n] = true
				if len(limbo) < 32 {
					limbo = append(limbo, n)
				}
			}
		}
		if next()%2 == 0 {
			if got, fresh := dom.CanonicalHash(live), dom.CanonicalHash(rebuild(live)); got != fresh {
				t.Fatalf("round %d: cached digest %v of the edited tree differs from a rebuild's %v", round, got, fresh)
			}
		}
		before := map[*dom.Node]bool{}
		live.Walk(func(n *dom.Node) bool { before[n] = true; return true })
		dom.Revert(live)
		nodes := 0
		live.Walk(func(n *dom.Node) bool {
			if m := dom.EditMarks(n); m != 0 {
				t.Fatalf("round %d: node %q keeps edit marks %b after Revert", round, n.Data, m)
			}
			if !clean[n] {
				t.Fatalf("round %d: node %q of the reverted tree is not one Clone made", round, n.Data)
			}
			nodes++
			delete(before, n)
			return true
		})
		if nodes != len(clean) {
			t.Fatalf("round %d: reverted tree has %d nodes, the clean one %d", round, nodes, len(clean))
		}
		for n := range before {
			if n.Parent == nil && len(limbo) < 32 {
				limbo = append(limbo, n)
			}
		}
		for _, l := range limbo {
			if got, fresh := dom.CanonicalHash(l), dom.CanonicalHash(rebuild(l)); got != fresh {
				t.Fatalf("round %d: cut-loose node %q has cached digest %v, a rebuild %v", round, l.Data, got, fresh)
			}
		}
		if got := dump(live); got != want {
			t.Fatalf("round %d: reverted tree differs from the snapshot:\n got %s\nwant %s", round, got, want)
		}
		if got := dom.OuterHTML(live); got != wantHTML {
			t.Fatalf("round %d: reverted HTML %q, want %q", round, got, wantHTML)
		}
		if got := dom.CanonicalHash(live); got != wantDigest {
			t.Fatalf("round %d: reverted digest %v, want %v", round, got, wantDigest)
		}
		if dump(snap) != want {
			t.Fatalf("round %d: the snapshot changed under Revert", round)
		}
	}
	if dom.CanonicalHash(snap) != wantDigest {
		t.Fatalf("the snapshot's digest changed under Revert")
	}
}

func TestRevert(t *testing.T) {
	src := watchPage()
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 20+r.Intn(300))
		r.Read(ops)
		checkRevert(t, src, ops)
	}
}

// TestRevertKeepsUntouchedNodes: a Revert allocates nothing, whether
// the clone is unedited or one element's child list changed, and the
// edited element is the same node afterwards.
func TestRevertKeepsUntouchedNodes(t *testing.T) {
	snap := html.Parse(watchPage())
	dom.CanonicalHash(snap)
	live := snap.Clone()
	if n := testing.AllocsPerRun(10, func() { dom.Revert(live) }); n != 0 {
		t.Fatalf("Revert of an unedited clone allocates %v times, want 0", n)
	}
	title, player := live.ElementByID("video-title"), live.ElementByID("player")
	text := player.FirstChild
	if n := testing.AllocsPerRun(10, func() {
		player.RemoveChild(text)
		player.AppendChild(text)
		dom.Revert(live)
	}); n != 0 {
		t.Fatalf("Revert of one edited element allocates %v times, want 0", n)
	}
	if live.ElementByID("video-title") != title || live.ElementByID("player") != player || player.FirstChild != text {
		t.Fatalf("Revert replaced a node instead of relinking it")
	}
}

// TestRevertAttrsAfterChildEdit: an element whose child list changed
// first and whose attributes changed second, after an earlier Revert of
// both, leaves the snapshot's attributes alone.
func TestRevertAttrsAfterChildEdit(t *testing.T) {
	snap := html.Parse(`<div id=a class=x>t</div>`)
	dom.CanonicalHash(snap)
	want := dump(snap)
	live := snap.Clone()
	for round := 0; round < 3; round++ {
		a := live.ElementByID("a")
		a.AppendChild(dom.NewText("u"))
		a.SetAttr("class", "y")
		a.RemoveAttr("id")
		dom.Revert(live)
		if got := dump(snap); got != want {
			t.Fatalf("round %d: the snapshot changed: %s", round, got)
		}
		if got := dump(live); got != want {
			t.Fatalf("round %d: reverted %s, want %s", round, got, want)
		}
	}
}

// TestReadopt: a copy whose nodes a Revert cut loose goes back under a
// target as the same nodes, with no allocation; a copy with a node still
// attached, edited or held stays where it is.
func TestReadopt(t *testing.T) {
	snap := html.Parse(`<div id=a></div><div id=b></div>`)
	dom.CanonicalHash(snap)
	holder := html.ParseFragment(`<b id=x>x</b><i>y</i>`)
	dom.CanonicalHash(holder)
	spare := holder.Clone()
	live := snap.Clone()
	a := live.ElementByID("a")
	if a.Readopt(spare.FirstChild) {
		t.Fatalf("Readopt took nodes still under the copy")
	}
	a.AdoptChildren(spare)
	b, i := a.FirstChild, a.LastChild
	if live.ElementByID("b").Readopt(b) {
		t.Fatalf("Readopt took nodes still under another element")
	}
	dom.Revert(live)
	if n := testing.AllocsPerRun(10, func() {
		if !a.Readopt(b) {
			t.Fatalf("Readopt refused nodes a Revert cut loose")
		}
		dom.Revert(live)
	}); n != 0 {
		t.Fatalf("Readopt allocates %v times, want 0", n)
	}
	a.Readopt(b)
	if a.FirstChild != b || a.LastChild != i || dom.OuterHTML(a) != `<div id="a"><b id="x">x</b><i>y</i></div>` {
		t.Fatalf("Readopt gave %s, not the copy's nodes", dom.OuterHTML(a))
	}
	if dom.CanonicalHash(live) != dom.CanonicalHash(rebuild(live)) {
		t.Fatalf("digest after Readopt differs from a rebuild's")
	}
	for _, spoil := range []struct {
		name string
		do   func()
	}{
		{"edited", func() { i.AppendChild(dom.NewText("z")) }},
		{"held", func() { b.FirstChild.Hold() }},
	} {
		spare = holder.Clone()
		dom.Revert(live)
		a.AdoptChildren(spare)
		b, i = a.FirstChild, a.LastChild
		spoil.do()
		dom.Revert(live)
		if a.Readopt(b) {
			t.Fatalf("Readopt reattached a copy with a node %s", spoil.name)
		}
	}
}

func FuzzRevert(f *testing.F) {
	src := watchPage()
	f.Add(src, []byte{0, 3, 8, 1, 4, 10, 2, 5, 0, 9, 1, 11})
	f.Add(src, []byte{1, 6, 3, 4, 7, 0, 0, 4, 12, 0, 11, 2, 0, 13, 1})
	f.Add(src, []byte{0, 2, 14, 0, 5, 1, 1, 3, 2, 11, 0, 0, 9, 3, 4})
	f.Add(`<p>a<b></b></p><!--c--><br>x<br><a x=1 x=2 X=1>t</a>`, []byte{0, 5, 7, 0, 4, 1, 3, 6, 9, 10, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, src string, ops []byte) {
		if len(src) > 1<<14 || len(ops) > 1<<9 {
			t.Skip() // each step walks and rebuilds the document
		}
		checkRevert(t, src, ops)
	})
}
