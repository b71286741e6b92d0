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

// TestNodeSize pins a node at 128 bytes: the edit marks live in the
// padding after the digest state.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(dom.Node{}); got != 128 {
		t.Fatalf("unsafe.Sizeof(dom.Node{}) = %d, want 128", got)
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

// checkRevert parses src into a snapshot, clones it, and reads ops as
// rounds of edits to the clone, each round ended by a Revert: the six
// mutators, moves, attribute reorders, whitespace-only text, comments, the
// AdoptChildren of a hashed holder's Clone that an innerHTML write does,
// edits to the root, and nodes an earlier edit or Revert cut loose —
// edited while detached, then brought back, as a handle a script kept in a
// global can be. Hashes of arbitrary subtrees fall in between or not.
// After each Revert the clone must equal the snapshot byte for byte, carry
// the digest of a never-hashed rebuild and hold no edit mark; the
// snapshot must not move.
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

	live := snap.Clone()
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
			child := func(p *dom.Node) *dom.Node {
				c := p.FirstChild
				for i := next() % 4; i > 0 && c != nil; i-- {
					c = c.NextSibling
				}
				return c
			}
			cut := func(n *dom.Node) {
				n.Parent.RemoveChild(n)
				if len(limbo) < 32 {
					limbo = append(limbo, n)
				}
			}
			switch next() % 15 {
			case 0:
				elem().AppendChild(dom.NewElement("div", word(), word()))
			case 1:
				elem().AppendChild(dom.NewText(word()))
			case 2:
				p := elem()
				p.InsertBefore(&dom.Node{Type: dom.CommentNode, Data: word()}, child(p))
			case 3:
				if n := node(); n.Parent != nil {
					cut(n)
				}
			case 4:
				// A move, within one parent or across the tree.
				if n, dst := node(), elem(); n.Parent != nil && !within(dst, n) {
					n.Parent.RemoveChild(n)
					dst.InsertBefore(n, child(dst))
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
				holder := dom.NewElement("#fragment")
				holder.AppendChildren(html.ParseFragment(word() + word()))
				dom.CanonicalHash(holder)
				elem().AdoptChildren(holder.Clone())
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
						dst.InsertBefore(l, child(dst))
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
			}
		}
		if next()%2 == 0 {
			if got, fresh := dom.CanonicalHash(live), dom.CanonicalHash(rebuild(live)); got != fresh {
				t.Fatalf("round %d: cached digest %v of the edited tree differs from a rebuild's %v", round, got, fresh)
			}
		}
		before := map[*dom.Node]bool{}
		live.Walk(func(n *dom.Node) bool { before[n] = true; return true })
		live = dom.Revert(live, snap)
		live.Walk(func(n *dom.Node) bool {
			if m := dom.EditMarks(n); m != 0 {
				t.Fatalf("round %d: node %q keeps edit marks %b after Revert", round, n.Data, m)
			}
			delete(before, n)
			return true
		})
		for n := range before {
			if n.Parent == nil && len(limbo) < 32 {
				limbo = append(limbo, n)
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
	}
	if dump(snap) != want || dom.CanonicalHash(snap) != wantDigest {
		t.Fatalf("the snapshot changed under Revert")
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

// TestRevertKeepsUntouchedNodes: a Revert of an unedited clone allocates
// nothing; one edited element costs two allocations (the slab) and is the
// only node replaced.
func TestRevertKeepsUntouchedNodes(t *testing.T) {
	snap := html.Parse(watchPage())
	dom.CanonicalHash(snap)
	live := snap.Clone()
	if n := testing.AllocsPerRun(10, func() { live = dom.Revert(live, snap) }); n != 0 {
		t.Fatalf("Revert of an unedited clone allocates %v times, want 0", n)
	}
	title, player := live.ElementByID("video-title"), live.ElementByID("player")
	if n := testing.AllocsPerRun(10, func() {
		player = title.NextSibling
		for player.Type != dom.ElementNode {
			player = player.NextSibling
		}
		text := player.FirstChild
		player.RemoveChild(text)
		player.AppendChild(text)
		live = dom.Revert(live, snap)
	}); n != 2 {
		t.Fatalf("Revert of one edited element allocates %v times, want 2", n)
	}
	if live.ElementByID("video-title") != title {
		t.Fatalf("Revert replaced an element no mutator touched")
	}
	if live.ElementByID("player") == player || player.Parent != nil {
		t.Fatalf("the edited element is still in the document")
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
