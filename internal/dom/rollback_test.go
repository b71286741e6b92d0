package dom_test

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/html"
)

// oracleTargets is the transition-target annotation as it was before undo
// records — core.diffTargets, which walked a pristine snapshot beside the
// live document — kept verbatim as FuzzRollback's oracle.
func oracleTargets(oldDoc, newDoc *dom.Node, keep func(string) string) []string {
	var targets []string
	var walk func(o, n *dom.Node)
	walk = func(o, n *dom.Node) {
		if o != nil && dom.CanonicalHash(o) == dom.CanonicalHash(n) {
			return
		}
		if n.Type == dom.ElementNode {
			if id := n.ID(); id != "" {
				if old := oldDoc.ElementByID(id); old != nil {
					if dom.CanonicalHash(old) != dom.CanonicalHash(n) {
						targets = append(targets, keep(id))
					}
					return
				}
			}
		}
		var oc *dom.Node
		if o != nil {
			oc = o.FirstChild
		}
		for nc := n.FirstChild; nc != nil; nc = nc.NextSibling {
			walk(oc, nc)
			if oc != nil {
				oc = oc.NextSibling
			}
		}
	}
	walk(oldDoc, newDoc)
	return targets
}

// world is one page's documents under one rollback scheme: browser.Page's,
// where a snapshot's own tree is the document and Revert reads the undo
// records, or the oracle's, where snapshots stay pristine, the document is
// a Clone of one, and OracleRevert copies from it.
type world struct {
	oracle     bool
	live       *dom.Node
	snaps      []*dom.Node
	cur        int // the snapshot live was restored to; -1 before any
	frags      fragments
	cleanFirst map[*dom.Node]*dom.Node // the oracle's clean first children
}

func (w *world) snapshot() {
	dom.CanonicalHash(w.live) // as Page.Snapshot does
	w.snaps = append(w.snaps, w.live.Clone())
}

// restore is Page.Restore, or in the oracle Restore as it was: revert the
// outgoing clone to the snapshot it came from, and clone another one whole.
func (w *world) restore(i int) {
	if w.oracle {
		if w.cur >= 0 {
			dom.OracleRevert(w.live, w.snaps[w.cur], w.cleanFirst)
		}
		if w.cur != i {
			w.live = w.snaps[i].Clone()
			w.live.Walk(func(n *dom.Node) bool { w.cleanFirst[n] = n.FirstChild; return true })
		}
	} else {
		dom.Revert(w.live)
		if w.live != w.snaps[i] {
			dom.Revert(w.snaps[i])
			w.live = w.snaps[i]
		}
	}
	w.cur = i
}

func (w *world) targets() []string {
	if w.oracle {
		return oracleTargets(w.snaps[w.cur], w.live, strings.Clone)
	}
	return dom.Targets(w.live, strings.Clone)
}

// kept is a node a script can reach in both worlds — a handle it took or
// a node an edit cut loose — and the state it was taken in.
type kept struct {
	n     [2]*dom.Node
	state int
}

// checkRollback parses src into two worlds, the rollback of browser.Page
// ([0]) and the oracle ([1]), and reads ops as a schedule applied to both:
// the edits of checkRevert (the mutators, moves, innerHTML writes through
// Readopt, nodes cut loose and brought back, handles), snapshots, reverts
// to the state the document came from, switches to another snapshot —
// earlier ones included — and writes through handles kept from a state the
// page has left. Handles and loose nodes of a state are dropped when the
// page enters it again: from then on a handle from an earlier visit reaches
// the snapshot's own nodes in the one world and a dead clone in the other.
// Before every rollback the two must report the same transition targets;
// after it the documents must be equal node for node, carry the digests of
// a never-hashed rebuild, and hold no edit mark.
func checkRollback(t *testing.T, src string, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	words := []string{"id", "class", "x  y", " ", "\n\t", "", "<b>t</b>", "<p id=q>r<!--c--></p> ", "<script>s</script>", "<i id=id>id</i>"}
	word := func() string { return words[next()%len(words)] }
	ws := [2]*world{
		{live: html.Parse(src), cur: -1, frags: fragments{}},
		{oracle: true, live: html.Parse(src), cur: -1, frags: fragments{}, cleanFirst: map[*dom.Node]*dom.Node{}},
	}
	held := map[*dom.Node]bool{}
	var handles, limbo []kept
	keep := func(list []kept, k kept) []kept {
		if len(list) < 32 {
			list = append(list, k)
		}
		return list
	}
	same := func(what string) {
		t.Helper()
		if a, b := dump(ws[0].live), dump(ws[1].live); a != b {
			t.Fatalf("%s: documents differ:\n got %s\nwant %s", what, a, b)
		}
		for _, w := range ws {
			if got, fresh := dom.CanonicalHash(w.live), dom.CanonicalHash(rebuild(w.live)); got != fresh {
				t.Fatalf("%s: cached digest %v differs from a rebuild's %v (oracle %v)", what, got, fresh, w.oracle)
			}
		}
	}
	restore := func(i int) {
		t.Helper()
		if ws[0].cur >= 0 {
			if got, want := ws[0].targets(), ws[1].targets(); !slices.Equal(got, want) {
				t.Fatalf("targets %q, the oracle's %q", got, want)
			}
		}
		if i != ws[0].cur {
			drop := func(list []kept) []kept {
				return slices.DeleteFunc(list, func(k kept) bool { return k.state == i })
			}
			handles, limbo = drop(handles), drop(limbo)
		}
		for _, w := range ws {
			w.restore(i)
		}
		same("after a restore")
		if ws[0].live != ws[0].snaps[i] {
			t.Fatalf("the document is not snapshot %d's own tree", i)
		}
		ws[0].live.Walk(func(n *dom.Node) bool {
			if m := dom.EditMarks(n); m != 0 {
				t.Fatalf("node %q keeps edit marks %b after a restore", n.Data, m)
			}
			return true
		})
	}

	for steps := 0; len(ops) > 0 && steps < 400; steps++ {
		var nodes, elems [2][]*dom.Node
		for k, w := range ws {
			w.live.Walk(func(n *dom.Node) bool {
				nodes[k] = append(nodes[k], n)
				if n.Type == dom.ElementNode {
					elems[k] = append(elems[k], n)
				}
				return true
			})
			if len(elems[k]) == 0 {
				elems[k] = []*dom.Node{w.live}
			}
		}
		if len(nodes[0]) != len(nodes[1]) {
			t.Fatalf("step %d: the documents have %d and %d nodes", steps, len(nodes[0]), len(nodes[1]))
		}
		ni, ei := next()%len(nodes[0]), next()%len(elems[0])
		nj, ej := next()%len(nodes[0]), next()%len(elems[0])
		a, b := word(), word()
		op := next() % 20
		if (op == 17 || op == 18) && len(ws[0].snaps) == 0 {
			op = 16
		}
		switch op {
		case 16:
			if len(ws[0].snaps) < 8 {
				for _, w := range ws {
					w.snapshot()
				}
			}
			if ws[0].cur < 0 {
				restore(0)
			}
			continue
		case 17:
			restore(ws[0].cur)
			continue
		case 18:
			restore(next() % len(ws[0].snaps))
			continue
		case 19:
			same("between edits")
			continue
		}
		// stale is a handle taken in another state than the current one.
		var stale *kept
		if op == 15 && len(handles) > 0 {
			if h := &handles[next()%len(handles)]; h.state != ws[0].cur {
				stale = h
			}
		}
		var lo *kept
		if len(limbo) > 0 {
			lo = &limbo[next()%len(limbo)]
		}
		sub := next()
		for k, w := range ws {
			node, elem := nodes[k][ni], elems[k][ei]
			other, dst := nodes[k][nj], elems[k][ej]
			switch op {
			case 0:
				elem.AppendChild(dom.NewElement("div", a, b))
			case 1:
				elem.AppendChild(dom.NewText(a))
			case 2:
				elem.AppendChild(&dom.Node{Type: dom.CommentNode, Data: a})
			case 3:
				if node.Parent != nil {
					node.Parent.RemoveChild(node)
					if k == 1 {
						limbo = keep(limbo, kept{[2]*dom.Node{nodes[0][ni], node}, ws[0].cur})
					}
				}
			case 4:
				if node.Parent != nil && !within(dst, node) {
					node.Parent.RemoveChild(node)
					dst.AppendChild(node)
				}
			case 5:
				elem.SetAttr(a, b)
			case 6:
				if len(elem.Attr) > 0 {
					elem.RemoveAttr(elem.Attr[sub%len(elem.Attr)].Key)
				}
			case 7:
				if len(elem.Attr) > 0 {
					at := elem.Attr[sub%len(elem.Attr)]
					elem.RemoveAttr(at.Key)
					elem.SetAttr(at.Key, at.Val)
				}
			case 8:
				w.frags.write(t, elem, a+b, held)
			case 9:
				if dst != elem && !within(elem, dst) {
					elem.AdoptChildren(dst)
				}
			case 10:
				dom.CanonicalHash(node)
			case 11:
				if lo != nil && !within(dst, lo.n[k]) {
					if l := lo.n[k]; l.Parent != nil {
						l.Parent.RemoveChild(l)
					}
					dst.AppendChild(lo.n[k])
				}
			case 12:
				if lo != nil {
					lo.n[k].SetAttr(a, b)
					lo.n[k].AppendChild(dom.NewText(b))
				}
			case 13:
				elem.RemoveChildren()
				elem.AppendChild(dom.NewText(a))
			case 14:
				node.Hold()
				held[node] = true
				if k == 1 {
					handles = keep(handles, kept{[2]*dom.Node{nodes[0][ni], node}, ws[0].cur})
				}
			case 15:
				if stale == nil {
					break
				}
				h := stale.n[k]
				switch sub % 5 {
				case 0:
					h.SetAttr(a, b)
				case 1:
					h.AppendChild(dom.NewText(a))
				case 2:
					if h.Type == dom.ElementNode {
						w.frags.write(t, h, a+b, held)
					}
				case 3:
					// The stale node into the document.
					if !within(dst, h) {
						if h.Parent != nil {
							h.Parent.RemoveChild(h)
						}
						dst.AppendChild(h)
					}
				case 4:
					// A node of the document under the stale one.
					if h.Type == dom.ElementNode && other.Parent != nil && !within(h, other) {
						other.Parent.RemoveChild(other)
						h.AppendChild(other)
					}
				}
			}
		}
	}
	if len(ws[0].snaps) > 0 {
		restore(ws[0].cur)
	}
}

func FuzzRollback(f *testing.F) {
	// FuzzRevert's seeds.
	src := watchPage()
	f.Add(src, []byte{0, 3, 8, 1, 4, 10, 2, 5, 0, 9, 1, 11})
	f.Add(src, []byte{1, 6, 3, 4, 7, 0, 0, 4, 12, 0, 11, 2, 0, 13, 1})
	f.Add(src, []byte{0, 2, 14, 0, 5, 1, 1, 3, 2, 11, 0, 0, 9, 3, 4})
	f.Add(`<p>a<b></b></p><!--c--><br>x<br><a x=1 x=2 X=1>t</a>`, []byte{0, 5, 7, 0, 4, 1, 3, 6, 9, 10, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, src string, ops []byte) {
		if len(src) > 1<<14 || len(ops) > 1<<10 {
			t.Skip() // each step walks both documents
		}
		checkRollback(t, src, ops)
	})
}

// TestRollback runs FuzzRollback's schedule over seeded random ops.
func TestRollback(t *testing.T) {
	src := watchPage()
	r := rand.New(rand.NewSource(1))
	for seed := 0; seed < 300; seed++ {
		ops := make([]byte, 50+r.Intn(900))
		r.Read(ops)
		checkRollback(t, src, ops)
	}
}

// TestRevertConcurrent: trees of several goroutines take and give back
// undo records through the one leaky buffer at once (as parallel crawl
// lines do); run it under -race.
func TestRevertConcurrent(t *testing.T) {
	snap := html.Parse(watchPage())
	dom.CanonicalHash(snap)
	want := dump(snap)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		live := snap.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				live.Walk(func(n *dom.Node) bool {
					if n.Type == dom.ElementNode && n.FirstChild != nil {
						n.SetAttr("class", "edited")
						n.AppendChild(dom.NewText("x"))
					}
					return true
				})
				dom.Revert(live)
				if got := dump(live); got != want {
					t.Errorf("round %d: reverted tree differs from the snapshot", round)
					return
				}
			}
		}()
	}
	wg.Wait()
}
