package clocktree

// LCATablesBuilt reports which of t's LCA tables exist yet, for the
// external laziness test (which imports skew, so it cannot live in this
// package).
func LCATablesBuilt(t *Tree) (lifting, euler bool) {
	return t.up != nil, t.sparse != nil
}
