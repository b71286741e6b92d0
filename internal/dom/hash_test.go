package dom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCanonicalHashIgnoresAttrOrder(t *testing.T) {
	a := NewElement("div", "id", "x", "class", "y")
	b := NewElement("div", "class", "y", "id", "x")
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Fatalf("hash should ignore attribute order")
	}
	if !Equal(a, b) {
		t.Fatalf("Equal should ignore attribute order")
	}
}

func TestCanonicalHashIgnoresWhitespaceAndComments(t *testing.T) {
	a := NewElement("div")
	a.AppendChild(NewText("hello   world"))
	b := NewElement("div")
	b.AppendChild(NewText("hello world"))
	b.AppendChild(&Node{Type: CommentNode, Data: "noise"})
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Fatalf("hash should collapse whitespace and skip comments")
	}
	c := NewElement("div")
	c.AppendChild(NewText("   "))
	d := NewElement("div")
	if CanonicalHash(c) != CanonicalHash(d) {
		t.Fatalf("whitespace-only text should be insignificant")
	}
}

func TestCanonicalHashDistinguishesContent(t *testing.T) {
	a := NewElement("div")
	a.AppendChild(NewText("page 1"))
	b := NewElement("div")
	b.AppendChild(NewText("page 2"))
	if CanonicalHash(a) == CanonicalHash(b) {
		t.Fatalf("different content must hash differently")
	}
	c := NewElement("span")
	c.AppendChild(NewText("page 1"))
	if CanonicalHash(a) == CanonicalHash(c) {
		t.Fatalf("different tags must hash differently")
	}
}

func TestCanonicalHashAttrBoundary(t *testing.T) {
	// Attribute values must be length-delimited so that ("ab","c") does
	// not collide with ("a","bc") across attribute boundaries.
	a := NewElement("div", "x", "ab", "y", "c")
	b := NewElement("div", "x", "a", "y", "bc")
	if CanonicalHash(a) == CanonicalHash(b) {
		t.Fatalf("attribute boundary collision")
	}
}

func TestCanonicalHashIgnoresScriptText(t *testing.T) {
	a := NewElement("div")
	sa := NewElement("script")
	sa.AppendChild(NewText("var x=1;"))
	a.AppendChild(sa)
	b := NewElement("div")
	sb := NewElement("script")
	sb.AppendChild(NewText("var x=2;"))
	b.AppendChild(sb)
	if CanonicalHash(a) != CanonicalHash(b) {
		t.Fatalf("script text should not affect state hash")
	}
}

// A page controls every byte of its text, so a digest that joins fields
// with bare separator bytes can be steered into a collision: under the
// old 0x01..0x04 framing <p>a<b></b></p> and a <p> whose one text node is
// "a\x01b\x04" hashed equal while Equal said false.
func TestCanonicalHashSeparatorBytesInText(t *testing.T) {
	a := NewElement("p")
	a.AppendChild(NewText("a"))
	a.AppendChild(NewElement("b"))
	b := NewElement("p")
	b.AppendChild(NewText("a\x01b\x04"))
	if Equal(a, b) {
		t.Fatalf("the pair must differ structurally")
	}
	if CanonicalHash(a) == CanonicalHash(b) {
		t.Fatalf("text carrying separator bytes collides with real structure")
	}
}

// Repeats of one attribute key are content (GetAttr answers with the
// first): Equal and the digest must agree on them.
func TestRepeatedAttrKeys(t *testing.T) {
	mk := func(vals ...string) *Node {
		n := &Node{Type: ElementNode, Data: "a"}
		for _, v := range vals {
			n.Attr = append(n.Attr, Attribute{Key: "x", Val: v})
		}
		return n
	}
	for _, c := range []struct {
		a, b  *Node
		equal bool
	}{
		{mk("1", "2"), mk("1", "2"), true},
		{mk("1", "2"), mk("2", "1"), false},
		{mk("1", "2"), mk("2", "2"), false},
	} {
		if got := Equal(c.a, c.b); got != c.equal {
			t.Errorf("Equal(%v, %v) = %v", c.a.Attr, c.b.Attr, got)
		}
		if got := CanonicalHash(c.a) == CanonicalHash(c.b); got != c.equal {
			t.Errorf("digests of %v and %v equal = %v", c.a.Attr, c.b.Attr, got)
		}
	}
}

// More attributes than attrOrder sorts on the stack take the other sort;
// both must produce one canonical order.
func TestCanonicalHashManyAttrs(t *testing.T) {
	a, b := NewElement("div"), NewElement("div")
	for i := 0; i < 3*smallAttrs; i++ {
		a.SetAttr("k"+string(rune('A'+i)), "v")
		b.SetAttr("k"+string(rune('A'+3*smallAttrs-1-i)), "v")
	}
	if CanonicalHash(a) != CanonicalHash(b) || !Equal(a, b) {
		t.Fatalf("attribute order leaked into the digest past %d attributes", smallAttrs)
	}
}

// Every mutator must reach the cached digests of the ancestors, and a
// reverted mutation must restore the old digest.
func TestMutatorsInvalidateDigest(t *testing.T) {
	doc := buildDoc()
	h0 := CanonicalHash(doc)
	b := doc.ElementByID("b")
	extra := NewElement("p")
	holder := NewElement("#fragment")
	holder.AppendChild(NewElement("i"))
	CanonicalHash(holder)
	spare := holder.Clone()
	first := spare.FirstChild

	steps := []struct {
		name    string
		mutate  func()
		changes bool
	}{
		{"AppendChild", func() { b.AppendChild(extra) }, true},
		{"RemoveChild", func() { b.RemoveChild(extra) }, false},
		{"AdoptChildren", func() { b.AdoptChildren(spare) }, true},
		{"RemoveChild again", func() { b.RemoveChild(b.LastChild) }, false},
		{"Readopt", func() { b.Readopt(first) }, true},
		{"RemoveChild a third time", func() { b.RemoveChild(b.LastChild) }, false},
		{"SetAttr", func() { b.SetAttr("title", "t") }, true},
		{"RemoveAttr", func() { b.RemoveAttr("title") }, false},
	}
	for _, st := range steps {
		st.mutate()
		if got := CanonicalHash(doc) != h0; got != st.changes {
			t.Fatalf("after %s: root digest differs from the original = %v, want %v", st.name, got, st.changes)
		}
	}
}

// Hashing is alloc-free, cold or warm, and a Clone is two slabs.
func TestHashAndCloneAllocs(t *testing.T) {
	doc := buildDoc()
	leaf := doc.ElementByID("b")
	if n := testing.AllocsPerRun(100, func() {
		leaf.SetAttr("class", "x") // dirties the path to the root
		CanonicalHash(doc)
	}); n != 0 {
		t.Errorf("rehash of a dirty path allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { doc.Clone() }); n > 2 {
		t.Errorf("Clone allocates %v times, want 2 slabs", n)
	}
	cold := doc.Clone()
	cold.Walk(func(n *Node) bool { n.hashed = digestDirty; return true })
	if n := testing.AllocsPerRun(1, func() { CanonicalHash(cold) }); n != 0 {
		t.Errorf("cold hash allocates %v times", n)
	}
}

// A clone's attribute slices sit side by side in one slab: growing one
// must not run into its neighbour's.
func TestCloneAttrsDoNotAlias(t *testing.T) {
	root := NewElement("div", "a", "1")
	root.AppendChild(NewElement("p", "b", "2"))
	c := root.Clone()
	c.SetAttr("z", "9")
	if got := c.FirstChild.AttrOr("b", ""); got != "2" {
		t.Fatalf("child attribute overwritten by the parent's append: b=%q", got)
	}
	if !Equal(root.FirstChild, c.FirstChild) {
		t.Fatalf("child changed by an edit of the parent's attributes")
	}
}

func TestEqualStructural(t *testing.T) {
	a := buildDoc()
	b := buildDoc()
	if !Equal(a, b) {
		t.Fatalf("identical trees not Equal")
	}
	b.ElementByID("a").AppendChild(NewElement("p"))
	if Equal(a, b) {
		t.Fatalf("trees with extra child reported Equal")
	}
}

// randomTree builds a random small DOM tree from a seeded source.
func randomTree(r *rand.Rand, depth int) *Node {
	tags := []string{"div", "span", "p", "a", "li"}
	n := NewElement(tags[r.Intn(len(tags))])
	if r.Intn(2) == 0 {
		n.SetAttr("id", string(rune('a'+r.Intn(26))))
	}
	if r.Intn(2) == 0 {
		n.SetAttr("class", string(rune('a'+r.Intn(26))))
	}
	kids := r.Intn(3)
	for i := 0; i < kids; i++ {
		if depth > 0 && r.Intn(2) == 0 {
			n.AppendChild(randomTree(r, depth-1))
		} else {
			n.AppendChild(NewText(string(rune('a' + r.Intn(26)))))
		}
	}
	return n
}

// Property: Clone preserves CanonicalHash and Equal; hash equality matches
// structural equality on independently generated trees (no false merges
// observed across the sample).
func TestPropertyCloneHashEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := randomTree(r, 3)
		cl := tr.Clone()
		return CanonicalHash(tr) == CanonicalHash(cl) && Equal(tr, cl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: shuffling attribute order never changes the canonical hash.
func TestPropertyAttrOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := NewElement("div")
		keys := []string{"id", "class", "href", "title", "data-x"}
		for _, k := range keys {
			n.SetAttr(k, string(rune('a'+r.Intn(26))))
		}
		m := n.Clone() // before n is hashed: Attr may only be written on a never-hashed node
		r.Shuffle(len(m.Attr), func(i, j int) { m.Attr[i], m.Attr[j] = m.Attr[j], m.Attr[i] })
		return CanonicalHash(n) == CanonicalHash(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: structural equality implies hash equality.
func TestPropertyEqualImpliesSameHash(t *testing.T) {
	f := func(seed int64) bool {
		r1 := rand.New(rand.NewSource(seed))
		r2 := rand.New(rand.NewSource(seed))
		a := randomTree(r1, 3)
		b := randomTree(r2, 3)
		if !Equal(a, b) {
			return true // vacuous
		}
		return CanonicalHash(a) == CanonicalHash(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCanonicalHash prices the three cases the crawler meets: a
// document never hashed (page load; the Clone it takes to get one is two
// allocations), one leaf changed under a hashed document (an event), and
// a hashed document asked again (Page.Hash after Trigger).
func BenchmarkCanonicalHash(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		doc := buildDoc()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			CanonicalHash(doc.Clone())
		}
	})
	b.Run("dirty-leaf", func(b *testing.B) {
		doc := buildDoc()
		leaf := doc.ElementByID("b")
		leaf.SetAttr("class", "x")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			leaf.SetAttr("class", "x")
			CanonicalHash(doc)
		}
	})
	b.Run("cached", func(b *testing.B) {
		doc := buildDoc()
		CanonicalHash(doc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			CanonicalHash(doc)
		}
	})
}
