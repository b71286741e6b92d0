package dom

// The edit marks Revert follows, sticky until it clears them.
const (
	editSelf  uint8 = 1 << iota // the node's attributes or child list changed
	editBelow                   // a node beneath it is marked
)

// undo is a Clone's node as it was before its first mark since the last
// Revert; its children's cleanNext links continue the list from first.
type undo struct {
	digest Hash
	hashed uint8
	first  *Node
	attrs  []Attribute
}

// freeRecords holds undo records Revert gave back for the next first
// marks to take, Effective Go's leaky buffer: a record is dropped when it
// is full and made when it is empty, so once it is warm an edit and its
// rollback allocate nothing. (A sync.Pool drops records at random under
// the race detector, where the allocation pins run too.)
var freeRecords = make(chan *undo, 256)

// mark sets the edit mark m on n. A Clone's node first records itself;
// at its first editSelf mark any node records its child list in its
// children's cleanNext, which Readopt follows from a parse's first node.
func (n *Node) mark(m uint8) {
	if n.edits&m != 0 {
		return
	}
	if n.edits == 0 && n.cloned {
		var u *undo
		select {
		case u = <-freeRecords:
		default:
			u = new(undo)
		}
		u.digest, u.hashed, u.first, u.attrs = n.digest, n.hashed, n.FirstChild, append(u.attrs[:0], n.Attr...)
		n.undo = u
	}
	if m == editSelf {
		for c := n.FirstChild; c != nil; c = c.NextSibling {
			c.cleanNext = c.NextSibling
		}
	}
	n.edits |= m
}

// Revert rolls n, a Clone edited since only through the six mutators,
// back to what it was when cloned or last reverted; another tree is left
// as it is. It follows the edit marks down from n. A node whose
// attributes or child list changed copies its recorded attributes back
// into its own slice, detaches its children and relinks its clean ones,
// pulling each from wherever the event put it; every marked node takes
// its recorded digest back and drops its marks and record. The result is
// the clean tree node for node, so a handle a script kept stays attached;
// the nodes the event added are left detached, and nothing is allocated.
func Revert(n *Node) {
	if n.edits != 0 && n.cloned {
		n.revert()
	}
}

func (n *Node) revert() {
	u := n.undo
	if n.edits&editSelf != 0 {
		n.Attr = append(n.Attr[:0], u.attrs...)
		n.RemoveChildren()
		for c := u.first; c != nil; c = c.cleanNext {
			if c.Parent != nil {
				// Dirties the node it leaves, which may be one the
				// event created and a script kept.
				c.Parent.unlink(c)
			}
			n.link(c)
		}
	}
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		if c.edits != 0 {
			c.revert()
		}
	}
	n.digest, n.hashed, n.edits, n.undo = u.digest, u.hashed, 0, nil
	clear(u.attrs) // the strings pin page bodies
	u.first, u.attrs = nil, u.attrs[:0]
	if cap(u.attrs) > smallAttrs {
		u.attrs = nil // a hostile element's copy is not kept
	}
	select {
	case freeRecords <- u:
	default:
	}
}

// Targets returns the ids of the shallowest identified elements whose
// content the edits since doc's last Revert changed — the transition's
// target annotation (Table 2.1). doc is a Clone hashed before the edits,
// as Page.Snapshot leaves it, and its old tree is the live one read
// through the undo records. An element is matched to its old self by id
// (the first with that id in the old tree, as getElementById had it) and
// reported, through keep, when the two digests differ; nothing beneath a
// matched element is looked at. Old and new are descended in lockstep and
// a pair of equal subtrees is pruned unvisited: equal subtrees hold the
// same ids with the same digests, so nothing inside them can be a target.
func Targets(doc *Node, keep func(string) string) []string {
	var targets []string
	var walk func(o, n *Node)
	walk = func(o, n *Node) {
		var oc *Node
		if o != nil {
			var digest Hash
			if digest, _, oc = o.old(); digest == CanonicalHash(n) {
				return
			}
		}
		if id := n.ID(); id != "" && n.Type == ElementNode {
			if old := doc.oldElementByID(id); old != nil {
				if digest, _, _ := old.old(); digest != CanonicalHash(n) {
					targets = append(targets, keep(id))
				}
				return
			}
		}
		for nc := n.FirstChild; nc != nil; nc = nc.NextSibling {
			walk(oc, nc)
			if oc != nil {
				oc = oc.cleanNext
			}
		}
	}
	walk(doc, doc)
	return targets
}

// old returns a Clone's node as of its last Revert: its digest, its
// attributes and its first child, whose cleanNext links go on from there.
func (n *Node) old() (Hash, []Attribute, *Node) {
	if n.edits != 0 {
		return n.undo.digest, n.undo.attrs, n.undo.first
	}
	return CanonicalHash(n), n.Attr, n.FirstChild
}

// oldElementByID is ElementByID over n's subtree as of its last Revert.
func (n *Node) oldElementByID(id string) *Node {
	_, attrs, first := n.old()
	for _, a := range attrs {
		if a.Key == "id" {
			if a.Val == id && n.Type == ElementNode {
				return n
			}
			break
		}
	}
	for c := first; c != nil; c = c.cleanNext {
		if found := c.oldElementByID(id); found != nil {
			return found
		}
	}
	return nil
}
