// Package clocktree models the paper's CLK trees (assumption A4): rooted
// binary trees laid out in the plane that distribute clock events to the
// cells of a COMM graph. It provides the clock layouts the paper studies —
// H-trees (Fig. 3), the spine clock for one-dimensional arrays (Fig. 4),
// folded (Fig. 5) and comb (Fig. 6) variants, serpentine and random trees
// for the Section V-B lower-bound experiments — plus buffer insertion
// (A7) and the distance queries (root distance d, tree-path distance s)
// that the two skew models of Section III are defined on.
package clocktree

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/comm"
	"repro/internal/geom"
)

// NodeID identifies a node of a clock tree; IDs are dense in [0, NumNodes).
type NodeID int

// Node is one vertex of the clock distribution tree. A node may be the
// clocking point of a cell (Cell ≥ 0), an internal branch point, or an
// inserted buffer.
type Node struct {
	ID     NodeID
	Pos    geom.Point
	Cell   comm.CellID // comm.Host (-1) if the node clocks no cell
	Buffer bool        // true for nodes inserted by Buffered (A7)
}

// Tree is a rooted binary clock tree with a planar wire layout. Build one
// with a Builder; a finalized Tree is immutable and safe for concurrent
// reads.
type Tree struct {
	Name  string
	nodes []Node
	root  NodeID

	parent   []NodeID
	children [][]NodeID
	wire     []geom.Path // wire[v]: route from parent(v).Pos to v.Pos
	edgeLen  []float64   // edgeLen[v] = wire[v].Length(), 0 at the root
	extra    []float64   // tuned slack added to edge v by Equalize

	// compact marks trees built by NewCompactBuilder: wire routes and
	// child lists are not retained, and no LCA table is ever built — only
	// the parent/edgeLen/rootDist/depth arrays. Distance queries stay
	// bit-identical (same arithmetic on the same operands); LCA degrades
	// to a lockstep parent walk — O(depth), which is O(log n) for the
	// balanced trees compact mode exists for. Buffered and wire-geometry
	// queries are unavailable. This is what lets 8192²-cell arrays fit
	// in memory: a compact H-tree retains ~84 bytes/node against ~188
	// for a full one (measured at 128², go1.24), whose LCA tables add
	// ~160 more once a single-pair query builds them.
	compact bool

	rootDist []float64
	depth    []int

	// LCA tables. Neither is built at Finalize: each is built on first
	// use behind its sync.Once, so a Tree stays safe for concurrent reads
	// and trees that never answer a single-pair LCA query (a skew kernel
	// resolves all its pairs with PathLens) never pay for them.
	liftOnce sync.Once
	up       [][]int32 // binary-lifting ancestor table

	// Euler-tour RMQ structures for O(1) LCA: euler is the tour's node
	// sequence (length 2n−1), tourDepth[i] = depth[euler[i]] laid out
	// contiguously for the RMQ scans, firstVisit[v] the index of v's
	// first tour occurrence, and sparse[k][i] the index of the
	// minimum-depth node in the tour window [i, i+2^k).
	eulerOnce  sync.Once
	euler      []int32
	tourDepth  []int32
	firstVisit []int32
	sparse     [][]int32
	log2       []uint8 // log2[w] = floor(log₂ w) for window sizes up to len(euler)

	cellNode []NodeID // cellNode[c]: the node clocking cell c, or -1 if none
}

// NumNodes returns the number of tree nodes.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Root returns the root node ID.
func (t *Tree) Root() NodeID { return t.root }

// Node returns the node with the given ID.
func (t *Tree) Node(id NodeID) Node { return t.nodes[id] }

// Parent returns the parent of v, or -1 for the root.
func (t *Tree) Parent(v NodeID) NodeID { return t.parent[v] }

// Compact reports whether the tree was built in compact mode (no wire
// routes or child lists retained, no O(1)-LCA table ever built).
func (t *Tree) Compact() bool { return t.compact }

// Children returns v's children; the slice must not be modified. Compact
// trees do not retain child lists and always return nil.
func (t *Tree) Children(v NodeID) []NodeID {
	if t.children == nil {
		return nil
	}
	return t.children[v]
}

// Wire returns the wire route from v's parent to v (nil at the root).
// Compact trees do not retain wire routes and always return nil.
func (t *Tree) Wire(v NodeID) geom.Path {
	if t.wire == nil {
		return nil
	}
	return t.wire[v]
}

// EdgeLen returns the electrical length of the wire from v's parent to v,
// including any tuning slack added by Equalize.
func (t *Tree) EdgeLen(v NodeID) float64 { return t.edgeLen[v] + t.extra[v] }

// CellNode returns the tree node that clocks the given cell.
func (t *Tree) CellNode(c comm.CellID) (NodeID, bool) {
	if c < 0 || int(c) >= len(t.cellNode) || t.cellNode[c] < 0 {
		return 0, false
	}
	return t.cellNode[c], true
}

// RootDist returns the electrical length of the path from the root to v —
// the h value of Section III.
func (t *Tree) RootDist(v NodeID) float64 { return t.rootDist[v] }

// CellRootDist returns the root distance of the node clocking cell c.
func (t *Tree) CellRootDist(c comm.CellID) float64 {
	return t.rootDist[t.mustCellNode(c)]
}

// MaxRootDist returns the longest root-to-node electrical length P; per
// A6 the equipotential distribution time τ is at least α·P.
func (t *Tree) MaxRootDist() float64 {
	var m float64
	for _, d := range t.rootDist {
		if d > m {
			m = d
		}
	}
	return m
}

// LCA returns the lowest common ancestor of a and b in O(1), answered
// from the Euler-tour sparse table (built on the first call): the LCA is
// the minimum-depth node in the tour between the two nodes' first
// visits. Compact trees answer with the parent walk instead.
func (t *Tree) LCA(a, b NodeID) NodeID {
	if t.compact {
		return t.lcaWalk(a, b)
	}
	t.eulerOnce.Do(t.buildEulerRMQ)
	l, r := t.firstVisit[a], t.firstVisit[b]
	if l > r {
		l, r = r, l
	}
	k := t.log2[r-l+1]
	i, j := t.sparse[k][l], t.sparse[k][r-(1<<k)+1]
	if t.tourDepth[j] < t.tourDepth[i] {
		i = j
	}
	return NodeID(t.euler[i])
}

// lcaWalk is the table-free LCA used by compact trees: lift the deeper
// node to the shallower's depth, then walk both up in lockstep. O(depth)
// per query — O(log n) on the balanced trees compact mode targets.
func (t *Tree) lcaWalk(a, b NodeID) NodeID {
	for t.depth[a] > t.depth[b] {
		a = t.parent[a]
	}
	for t.depth[b] > t.depth[a] {
		b = t.parent[b]
	}
	for a != b {
		a = t.parent[a]
		b = t.parent[b]
	}
	return a
}

// LCABinaryLifting is the O(log n) binary-lifting LCA retained alongside
// the Euler-tour implementation as an independent oracle: differential
// tests cross-check the two on every tree shape. The lifting table is
// built on the first call; compact trees answer with the parent walk.
func (t *Tree) LCABinaryLifting(a, b NodeID) NodeID {
	if t.compact {
		return t.lcaWalk(a, b)
	}
	t.liftOnce.Do(t.buildLifting)
	u, v := int32(a), int32(b)
	if t.depth[u] < t.depth[v] {
		u, v = v, u
	}
	diff := t.depth[u] - t.depth[v]
	for k := 0; diff != 0; k++ {
		if diff&1 != 0 {
			u = t.up[k][u]
		}
		diff >>= 1
	}
	if u == v {
		return NodeID(u)
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if t.up[k][u] != t.up[k][v] {
			u = t.up[k][u]
			v = t.up[k][v]
		}
	}
	return NodeID(t.up[0][u])
}

// PathLen returns the electrical length s of the tree path connecting a
// and b: rootDist(a) + rootDist(b) − 2·rootDist(lca). This is the distance
// the summation model (A10/A11) is defined on.
func (t *Tree) PathLen(a, b NodeID) float64 {
	l := t.LCA(a, b)
	return t.rootDist[a] + t.rootDist[b] - 2*t.rootDist[l]
}

// PathLens writes s[i] = PathLen(a[i], b[i]) for every query pair, bit
// for bit (same arithmetic on the same operands), answering them all in
// one offline pass instead of one LCA query each: Tarjan's offline LCA,
// a union-find over an iterative DFS. A pair is resolved when the DFS
// enters its later-visited endpoint; the set representative of the
// other endpoint is then the deepest node on the current DFS path above
// it, which is the LCA. It runs in O(nodes + pairs) time up to the
// union-find's near-constant amortized factor and keeps nothing: no LCA
// table is built. It reads only the parent array, so compact trees take
// the same path, and chain-shaped trees (spines, serpentines) stay
// linear where a parent walk would be quadratic.
func (t *Tree) PathLens(a, b []int32, s []float64) {
	if len(b) != len(a) || len(s) != len(a) {
		panic(fmt.Sprintf("clocktree: PathLens lengths differ: %d, %d, %d", len(a), len(b), len(s)))
	}
	n := len(t.parent)
	kidOff, kids := groupBy(n, t.parent)
	// Query entry i < len(a) is pair i filed under a[i]; entry
	// len(a)+i is pair i filed under b[i].
	qOff, qs := groupBy(n, a, b)
	// uf[v] is −1 until the DFS enters v, v itself while v is on the DFS
	// path, and afterwards a link toward v's parent: find(v) is then the
	// deepest ancestor of v still on the path.
	uf := make([]int32, n)
	for v := range uf {
		uf[v] = -1
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]] // path halving
			x = uf[x]
		}
		return x
	}
	enter := func(v int32) {
		uf[v] = v
		for _, e := range qs[qOff[v]:qOff[v+1]] {
			i := int(e)
			var other int32
			if i < len(a) {
				other = b[i]
			} else {
				i -= len(a)
				other = a[i]
			}
			if uf[other] >= 0 {
				l := find(other)
				s[i] = t.rootDist[a[i]] + t.rootDist[b[i]] - 2*t.rootDist[l]
			}
		}
	}
	type frame struct{ v, next int32 }
	root := int32(t.root)
	stack := append(make([]frame, 0, 64), frame{root, kidOff[root]})
	enter(root)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == kidOff[top.v+1] {
			v := top.v
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				uf[v] = stack[len(stack)-1].v
			}
			continue
		}
		c := kids[top.next]
		top.next++
		enter(c)
		stack = append(stack, frame{c, kidOff[c]})
	}
}

// groupBy files entries under keys in [0, keys), dropping entries keyed
// negative, and returns them in CSR form: the entries filed under k are
// list[off[k]:off[k+1]], in ascending order. Entries are numbered
// across the key lists in turn: entry j of lists[1] is len(lists[0])+j.
func groupBy[K NodeID | int32](keys int, lists ...[]K) (off, list []int32) {
	off = make([]int32, keys+1)
	for _, l := range lists {
		for _, k := range l {
			if k >= 0 {
				off[k+1]++
			}
		}
	}
	for k := 1; k <= keys; k++ {
		off[k] += off[k-1]
	}
	list = make([]int32, off[keys])
	j := int32(0)
	for _, l := range lists {
		for _, k := range l {
			if k >= 0 {
				list[off[k]] = j
				off[k]++
			}
			j++
		}
	}
	// The fill advanced each off[k] to the start of bucket k+1.
	copy(off[1:], off[:keys])
	off[0] = 0
	return off, list
}

// DiffDist returns the positive difference d between the root distances of
// a and b — the distance the difference model (A9) is defined on.
func (t *Tree) DiffDist(a, b NodeID) float64 {
	return math.Abs(t.rootDist[a] - t.rootDist[b])
}

// CellPathLen returns PathLen between the nodes clocking cells a and b.
func (t *Tree) CellPathLen(a, b comm.CellID) float64 {
	return t.PathLen(t.mustCellNode(a), t.mustCellNode(b))
}

// CellDiffDist returns DiffDist between the nodes clocking cells a and b.
func (t *Tree) CellDiffDist(a, b comm.CellID) float64 {
	return t.DiffDist(t.mustCellNode(a), t.mustCellNode(b))
}

func (t *Tree) mustCellNode(c comm.CellID) NodeID {
	id, ok := t.CellNode(c)
	if !ok {
		panic(fmt.Sprintf("clocktree: cell %d is not clocked by tree %q", c, t.Name))
	}
	return id
}

// TotalWireLength returns the total electrical length of all tree wires,
// used for layout-area accounting (Lemma 1: the clock tree must fit in a
// constant factor of the layout area; with unit-width wires, wire length
// is wire area by A3).
func (t *Tree) TotalWireLength() float64 {
	var sum float64
	for v := range t.nodes {
		sum += t.EdgeLen(NodeID(v))
	}
	return sum
}

// Bounds returns the bounding rectangle of all nodes and wire vertices.
func (t *Tree) Bounds() geom.Rect {
	r := geom.BoundingRectOfPaths(t.wire)
	for _, n := range t.nodes {
		r = r.Union(geom.Rect{Min: n.Pos, Max: n.Pos})
	}
	return r
}

// ParentArray returns the tree as a parent array (parent[root] = -1), the
// representation used by graph.TreeEdgeSeparator (Lemma 5).
func (t *Tree) ParentArray() []int {
	out := make([]int, len(t.parent))
	for v, p := range t.parent {
		out[v] = int(p)
	}
	return out
}

// CellMask returns a boolean mask over tree nodes marking the nodes that
// clock cells, for use with the Lemma-5 separator.
func (t *Tree) CellMask() []bool {
	mask := make([]bool, len(t.nodes))
	for _, id := range t.cellNode {
		if id >= 0 {
			mask[id] = true
		}
	}
	return mask
}

// Covers reports whether every cell of g is clocked by some node of t
// (A4: a cell can be clocked only if it is also a node of CLK).
func (t *Tree) Covers(g *comm.Graph) bool {
	for _, c := range g.Cells {
		if _, ok := t.CellNode(c.ID); !ok {
			return false
		}
	}
	return true
}

// Equalize adds tuning slack to leaf edges so that every cell node has the
// same root distance (the maximum). This models the practice, discussed in
// Section VII, of tuning discrete clock-tree wiring so delay from the root
// is the same for all cells — the regime where the difference model makes
// H-tree clocking exact. It returns the amount of slack added in total.
func (t *Tree) Equalize() float64 {
	target := 0.0
	for _, id := range t.cellNode {
		if id >= 0 && t.rootDist[id] > target {
			target = t.rootDist[id]
		}
	}
	var added float64
	for _, id := range t.cellNode {
		if id < 0 {
			continue
		}
		slack := target - t.rootDist[id]
		if slack > 0 {
			t.extra[id] += slack
			added += slack
		}
	}
	t.recomputeDistances()
	return added
}

// recomputeDistances refreshes rootDist and depth after edge-length
// changes. The Builder creates every parent before its children, so
// ascending node order is topological and one forward pass suffices.
func (t *Tree) recomputeDistances() {
	for v, p := range t.parent {
		if p >= 0 {
			t.rootDist[v] = t.rootDist[p] + t.EdgeLen(NodeID(v))
			t.depth[v] = t.depth[p] + 1
		} else {
			t.rootDist[v], t.depth[v] = 0, 0
		}
	}
}

// Validate checks the structural invariants required by A4 and the layout
// conventions: a single root, binary branching, wires connecting parent to
// child positions, and acyclicity (every node reachable from the root
// exactly once). The Builder creates every parent before its children,
// so checking that each non-root node's parent precedes it establishes
// the single root, acyclicity and reachability at once: every node
// chains down to the root through strictly smaller indices. Compact
// trees check everything but the child lists and wires they drop.
func (t *Tree) Validate() error {
	n := len(t.nodes)
	if n == 0 {
		return fmt.Errorf("clocktree %q: empty tree", t.Name)
	}
	if t.parent[t.root] != -1 {
		return fmt.Errorf("clocktree %q: root %d has a parent", t.Name, t.root)
	}
	counts := make([]uint8, n)
	for v := 0; v < n; v++ {
		if NodeID(v) == t.root {
			continue
		}
		p := t.parent[v]
		if p < 0 || int(p) >= v {
			return fmt.Errorf("clocktree %q: node %d has parent %d; parents must precede children",
				t.Name, v, p)
		}
		if counts[p] == 2 {
			return fmt.Errorf("clocktree %q: node %d has more than 2 children (A4 requires binary)", t.Name, p)
		}
		counts[p]++
		if t.compact {
			continue
		}
		w := t.wire[v]
		if len(w) < 1 {
			return fmt.Errorf("clocktree %q: edge %d→%d has no wire", t.Name, p, v)
		}
		if !w.Start().Eq(t.nodes[p].Pos, 1e-6) || !w.End().Eq(t.nodes[v].Pos, 1e-6) {
			return fmt.Errorf("clocktree %q: wire of edge %d→%d does not connect node positions",
				t.Name, p, v)
		}
	}
	if !t.compact {
		for v, kids := range t.children {
			if len(kids) != int(counts[v]) {
				return fmt.Errorf("clocktree %q: child list of %d does not match the parent array", t.Name, v)
			}
			for _, c := range kids {
				if t.parent[c] != NodeID(v) {
					return fmt.Errorf("clocktree %q: parent/child mismatch at %d→%d", t.Name, v, c)
				}
			}
		}
	}
	for c, id := range t.cellNode {
		if id >= 0 && t.nodes[id].Cell != comm.CellID(c) {
			return fmt.Errorf("clocktree %q: cell index broken for cell %d", t.Name, c)
		}
	}
	return nil
}

// Builder assembles a Tree incrementally. Create with NewBuilder, add the
// root with Root, attach nodes with Child, then call Finalize.
//
// A full-mode Builder lays its per-node storage out flat so a tree costs
// O(1) heap objects, not several per node: child lists are carved two
// slots at a time from one []NodeID, and default rectilinear wires are
// written into one shared []geom.Point. Both hand out cap-limited
// subslices, so an append to one node's list or wire reallocates rather
// than writing into a neighbour's.
type Builder struct {
	t       *Tree
	rootSet bool
	kids    []NodeID     // unused child-list slots
	pts     []geom.Point // default-wire arena (compact mode: route scratch)
}

// NewBuilder returns a Builder for a tree with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{t: &Tree{Name: name}}
}

// NewCompactBuilder returns a Builder whose tree is built in compact
// mode: wire routes and child lists are dropped as nodes are added, and
// LCA queries use the parent walk rather than a table. The tree keeps
// the same name, node IDs, edge lengths, and root distances
// (bit-identical) as the full tree the same Builder calls would produce
// — only geometry retention and query complexity differ.
func NewCompactBuilder(name string) *Builder {
	return &Builder{t: &Tree{Name: name, compact: true}}
}

// reserve presizes the builder for a tree of the given node count
// clocking cells [0, cells), so a builder that knows its size upfront
// (HTree needs exactly 2n−1 nodes) allocates each array once.
func (b *Builder) reserve(nodes, cells int) {
	t := b.t
	t.nodes = make([]Node, 0, nodes)
	t.parent = make([]NodeID, 0, nodes)
	t.edgeLen = make([]float64, 0, nodes)
	t.extra = make([]float64, 0, nodes)
	t.cellNode = make([]NodeID, cells)
	for c := range t.cellNode {
		t.cellNode[c] = -1
	}
	if !t.compact {
		t.children = make([][]NodeID, 0, nodes)
		t.wire = make([]geom.Path, 0, nodes)
		b.kids = make([]NodeID, nodes) // a binary tree of n nodes fills at most n−1 slots
		b.pts = make([]geom.Point, 0, 3*nodes)
	}
}

// Root creates the root node. It may be called only once.
func (b *Builder) Root(pos geom.Point, cell comm.CellID) NodeID {
	if b.rootSet {
		panic("clocktree: Root called twice")
	}
	b.rootSet = true
	id := b.addNode(pos, cell, false)
	b.t.root = id
	return id
}

// Child creates a node at pos attached to parent by the given wire route.
// If wire is nil, a rectilinear route from the parent is used. cell may be
// comm.Host for internal nodes.
func (b *Builder) Child(parent NodeID, pos geom.Point, cell comm.CellID, wire geom.Path) NodeID {
	if !b.rootSet {
		panic("clocktree: Child before Root")
	}
	if wire == nil {
		wire = b.route(b.t.nodes[parent].Pos, pos)
	}
	id := b.addNode(pos, cell, false)
	b.link(parent, id, wire)
	return id
}

// route returns geom.Rectilinear(from, to) laid into the wire arena. A
// compact builder keeps only the route's length, so it reuses one
// scratch buffer instead.
func (b *Builder) route(from, to geom.Point) geom.Path {
	if b.t.compact {
		b.pts = geom.AppendRectilinear(b.pts[:0], from, to)
		return b.pts
	}
	if cap(b.pts)-len(b.pts) < 3 {
		// A fresh chunk sized to the tree so far: chunks grow
		// geometrically, and the wires already handed out keep theirs.
		b.pts = make([]geom.Point, 0, max(3*len(b.t.nodes), 96))
	}
	start := len(b.pts)
	b.pts = geom.AppendRectilinear(b.pts, from, to)
	return b.pts[start:len(b.pts):len(b.pts)]
}

// link attaches node id below parent through wire.
func (b *Builder) link(parent, id NodeID, wire geom.Path) {
	t := b.t
	t.parent[id] = parent
	t.edgeLen[id] = wire.Length()
	if t.compact {
		return
	}
	kids := t.children[parent]
	if kids == nil {
		if len(b.kids) < 2 {
			b.kids = make([]NodeID, max(2*len(t.nodes), 64))
		}
		kids, b.kids = b.kids[:0:2], b.kids[2:]
	}
	t.children[parent] = append(kids, id)
	t.wire[id] = wire
}

func (b *Builder) addNode(pos geom.Point, cell comm.CellID, buffer bool) NodeID {
	t := b.t
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{ID: id, Pos: pos, Cell: cell, Buffer: buffer})
	t.parent = append(t.parent, -1)
	if !t.compact {
		t.children = append(t.children, nil)
		t.wire = append(t.wire, nil)
	}
	t.edgeLen = append(t.edgeLen, 0)
	t.extra = append(t.extra, 0)
	if cell != comm.Host {
		if cell < 0 {
			panic(fmt.Sprintf("clocktree: invalid cell %d", cell))
		}
		for int(cell) >= len(t.cellNode) {
			t.cellNode = append(t.cellNode, -1)
		}
		if t.cellNode[cell] >= 0 {
			panic(fmt.Sprintf("clocktree: cell %d clocked twice", cell))
		}
		t.cellNode[cell] = id
	}
	return id
}

// Finalize validates the tree, computes root distances and depths, and
// returns the completed tree. It builds no LCA table; see LCA and
// PathLens. The Builder must not be used afterwards.
func (b *Builder) Finalize() (*Tree, error) {
	t := b.t
	b.t = nil
	if t == nil || len(t.nodes) == 0 {
		return nil, fmt.Errorf("clocktree: Finalize on empty builder")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	t.rootDist = make([]float64, len(t.nodes))
	t.depth = make([]int, len(t.nodes))
	t.recomputeDistances()
	return t, nil
}

// buildLifting builds the binary-lifting ancestor table behind
// LCABinaryLifting.
func (t *Tree) buildLifting() {
	n := len(t.nodes)
	levels := 1
	maxDepth := 0
	for _, d := range t.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	for 1<<levels <= maxDepth {
		levels++
	}
	t.up = make([][]int32, levels)
	t.up[0] = make([]int32, n)
	for v := 0; v < n; v++ {
		if p := t.parent[v]; p >= 0 {
			t.up[0][v] = int32(p)
		} else {
			t.up[0][v] = int32(v)
		}
	}
	for k := 1; k < levels; k++ {
		t.up[k] = make([]int32, n)
		for v := 0; v < n; v++ {
			t.up[k][v] = t.up[k-1][t.up[k-1][v]]
		}
	}
}

// buildEulerRMQ records the Euler tour of the tree and a sparse table of
// minimum-depth positions over it, giving LCA queries in O(1) after
// O(n log n) preprocessing.
func (t *Tree) buildEulerRMQ() {
	n := len(t.nodes)
	t.euler = make([]int32, 0, 2*n-1)
	t.tourDepth = make([]int32, 0, 2*n-1)
	t.firstVisit = make([]int32, n)
	visit := func(v NodeID) {
		t.euler = append(t.euler, int32(v))
		t.tourDepth = append(t.tourDepth, int32(t.depth[v]))
	}
	// Iterative Euler tour: each stack frame is a node plus the index of
	// the next child to descend into; the node is appended on entry and
	// again after each child's subtree.
	type frame struct {
		v    NodeID
		next int
	}
	stack := []frame{{v: t.root}}
	t.firstVisit[t.root] = 0
	visit(t.root)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.children[f.v]
		if f.next >= len(kids) {
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				visit(stack[len(stack)-1].v)
			}
			continue
		}
		c := kids[f.next]
		f.next++
		t.firstVisit[c] = int32(len(t.euler))
		visit(c)
		stack = append(stack, frame{v: c})
	}
	m := len(t.euler)
	t.log2 = make([]uint8, m+1)
	for w := 2; w <= m; w++ {
		t.log2[w] = t.log2[w/2] + 1
	}
	levels := int(t.log2[m]) + 1
	t.sparse = make([][]int32, levels)
	base := make([]int32, m)
	for i := range base {
		base[i] = int32(i)
	}
	t.sparse[0] = base
	for k := 1; k < levels; k++ {
		width := 1 << k
		row := make([]int32, m-width+1)
		prev := t.sparse[k-1]
		for i := range row {
			a, b := prev[i], prev[i+width/2]
			if t.tourDepth[b] < t.tourDepth[a] {
				a = b
			}
			row[i] = a
		}
		t.sparse[k] = row
	}
}
