package dom

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Hash is the canonical content hash of a DOM subtree. Two application
// states with equal hashes are considered the same state by the crawler
// (thesis §3.2: "we compute a hash of the content of the state").
type Hash [32]byte

// String returns the hex form of the hash (for logs and gob keys).
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// States of a Node's digest cache. The zero value is dirty, so a node
// built field by field (the parser) starts out unhashed.
const (
	digestDirty uint8 = iota // never hashed, or mutated beneath since
	digestValid              // Node.digest is the subtree's digest
	digestNone               // hashed, and the node contributes nothing
)

// CanonicalHash returns the canonical hash of the subtree rooted at n: a
// Merkle digest, cached on every node and recomputed only for the
// subtrees mutated since the last call, so a second call — or a call on
// a Clone — costs nothing. Filling the cache writes to the nodes: two
// goroutines may not hash one tree concurrently.
//
//	digest(text)    = H(kind ‖ whitespace-collapsed text)
//	digest(element) = H(kind ‖ len ‖ tag ‖ #attrs ‖ (len ‖ key ‖ len ‖ val)* ‖ child digests)
//
// with the document node hashed like an element with no tag. The hash is
// canonical in the sense that representations that render the same
// user-visible state collapse to the same value:
//   - attribute order is ignored (attributes are hashed sorted by key,
//     repeats of one key in document order),
//   - whitespace in text nodes is collapsed,
//   - comments, doctypes and whitespace-only text nodes contribute
//     nothing (hashed on their own they yield the zero Hash),
//   - script/style contents are ignored (they do not change what the user
//     sees; the crawler cares about visible state identity).
//
// Every variable-length field is length-prefixed and child digests have
// a fixed width, so no page-controlled byte can shift a field boundary.
func CanonicalHash(n *Node) Hash {
	if n.hashed == digestDirty {
		var scratch [2048]byte
		n.rehash(scratch[:0])
	}
	return n.digest
}

// rehash recomputes the digest of n and of the dirty nodes beneath it.
// buf is a stack of preimages: each node appends its own past len(buf),
// hashes it and pops it, so one buffer serves the whole walk. It returns
// buf at its original length (possibly regrown).
func (n *Node) rehash(buf []byte) []byte {
	if n.Type == CommentNode || n.Type == DoctypeNode {
		n.digest, n.hashed = Hash{}, digestNone
		return buf
	}
	start := len(buf)
	buf = append(buf, byte(n.Type))
	if n.Type == TextNode {
		buf = appendCollapsed(buf, n.Data)
		if len(buf) == start+1 {
			n.digest, n.hashed = Hash{}, digestNone
			return buf[:start]
		}
	} else {
		buf = appendField(buf, n.Data)
		buf = appendAttrs(buf, n.Attr)
		rawText := rawTextElements[n.Data]
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			if c.hashed == digestDirty {
				buf = c.rehash(buf)
			}
			if c.hashed == digestValid && !(rawText && c.Type == TextNode) {
				buf = append(buf, c.digest[:]...)
			}
		}
	}
	n.digest, n.hashed = sha256.Sum256(buf[start:]), digestValid
	return buf[:start]
}

// invalidate marks n edited and n and its ancestors dirty and marked,
// before a mutator changes n. Hashing a node hashes its whole subtree and
// every mutation comes through here, so the ancestors of a dirty node are
// dirty and those of a marked node marked: the walk stops at the first
// dirty editBelow one.
func (n *Node) invalidate() {
	n.mark(editSelf)
	n.hashed = digestDirty
	for p := n.Parent; p != nil && (p.hashed != digestDirty || p.edits&editBelow == 0); p = p.Parent {
		p.mark(editBelow)
		p.hashed = digestDirty
	}
}

func appendField(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendAttrs(buf []byte, attrs []Attribute) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(attrs)))
	var small [smallAttrs]int
	for _, i := range attrOrder(attrs, &small) {
		buf = appendField(buf, attrs[i].Key)
		buf = appendField(buf, attrs[i].Val)
	}
	return buf
}

// smallAttrs is the attribute count up to which attrOrder sorts in the
// caller's stack array; real elements carry a handful.
const smallAttrs = 16

// attrOrder returns the indices of attrs in canonical order: by key,
// repeats of one key in document order (GetAttr answers with the first,
// so their order is content). Up to smallAttrs it allocates nothing; a
// hostile element with thousands of attributes gets an n·log n sort.
func attrOrder(attrs []Attribute, small *[smallAttrs]int) []int {
	if len(attrs) > smallAttrs {
		idx := make([]int, len(attrs))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return attrs[idx[a]].Key < attrs[idx[b]].Key })
		return idx
	}
	idx := small[:0]
	for i := range attrs {
		j := len(idx)
		idx = append(idx, i)
		for ; j > 0 && attrs[idx[j-1]].Key > attrs[i].Key; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = i
	}
	return idx
}

// Equal reports whether two subtrees are canonically identical, using the
// same normalization rules as CanonicalHash but comparing structurally
// (no hashing). Used by tests and by the ablation that compares hash-based
// duplicate detection with full-tree comparison.
func Equal(a, b *Node) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case TextNode:
		return CollapseWhitespace(a.Data) == CollapseWhitespace(b.Data)
	case ElementNode:
		if a.Data != b.Data {
			return false
		}
		if !equalAttrs(a.Attr, b.Attr) {
			return false
		}
	}
	ca, cb := significantChildren(a), significantChildren(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if !Equal(ca[i], cb[i]) {
			return false
		}
	}
	return true
}

func equalAttrs(a, b []Attribute) bool {
	if len(a) != len(b) {
		return false
	}
	var sa, sb [smallAttrs]int
	ia, ib := attrOrder(a, &sa), attrOrder(b, &sb)
	for k := range ia {
		if a[ia[k]] != b[ib[k]] {
			return false
		}
	}
	return true
}

func significant(n *Node) bool {
	switch n.Type {
	case CommentNode, DoctypeNode:
		return false
	case TextNode:
		if n.Parent != nil && (n.Parent.Data == "script" || n.Parent.Data == "style") {
			return false
		}
		return CollapseWhitespace(n.Data) != ""
	}
	return true
}

func significantChildren(n *Node) []*Node {
	var out []*Node
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if significant(c) {
			out = append(out, c)
		}
	}
	return out
}
