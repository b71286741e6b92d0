package dom

// EditMarks exposes a node's edit marks to the external tests.
func EditMarks(n *Node) uint8 { return n.edits }

// OracleRevert is Revert as it was before undo records, FuzzRollback's
// oracle: it rolls live, a Clone of snap (or an earlier OracleRevert to
// it) edited since only through the six mutators, back to snap by
// copying snap's attributes and digests into the nodes the edit marks
// lead to and relinking each edited node's clean children. The clean
// child lists are the ones Clone made: the first child in cleanFirst,
// which the caller fills when it clones, the rest through cleanNext.
func OracleRevert(live, snap *Node, cleanFirst map[*Node]*Node) *Node {
	live.oracleRevert(snap, cleanFirst)
	return live
}

func (n *Node) oracleRevert(snap *Node, cleanFirst map[*Node]*Node) {
	if n.edits&editSelf != 0 {
		n.Attr = append(n.Attr[:0], snap.Attr...)
		n.RemoveChildren()
		for c := cleanFirst[n]; c != nil; c = c.cleanNext {
			if c.Parent != nil {
				// Dirties the node it leaves, which may be one the
				// event created and a script kept.
				c.Parent.unlink(c)
			}
			n.link(c)
		}
	}
	for c, o := n.FirstChild, snap.FirstChild; c != nil; c, o = c.NextSibling, o.NextSibling {
		if c.edits != 0 {
			c.oracleRevert(o, cleanFirst)
		}
	}
	n.digest, n.hashed, n.edits = snap.digest, snap.hashed, 0
}
