package dom

// EditMarks exposes a node's edit marks to the external tests.
func EditMarks(n *Node) uint8 { return n.edits }
