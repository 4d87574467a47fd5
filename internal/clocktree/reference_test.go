package clocktree

// The H-tree construction as it stood before the builder moved to flat
// arrays, kept verbatim as a tolerance-0 oracle: recursion over
// comm.Cell copies, a bounding box recomputed by Rect.Union per region,
// one freshly allocated rectilinear wire and one appended child slice
// per edge, a map cell index, and root distances by a stack walk over
// the child lists. TestHTreeMatchesReference and FuzzHTree diff the
// production builder against it node for node.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
)

// refTree is the oracle's tree: the arrays the pre-flat Builder filled.
type refTree struct {
	nodes    []Node
	parent   []NodeID
	children [][]NodeID
	wire     []geom.Path
	edgeLen  []float64
	extra    []float64
	rootDist []float64
	cellNode map[comm.CellID]NodeID
}

func referenceHTree(g *comm.Graph) *refTree {
	b := &refTree{cellNode: make(map[comm.CellID]NodeID)}
	cells := append([]comm.Cell(nil), g.Cells...)
	center := refBBoxCenter(cells)
	if len(cells) == 1 {
		b.addNode(cells[0].Pos, cells[0].ID)
	} else {
		root := b.addNode(center, comm.Host)
		refBuildHTree(b, root, cells)
	}
	b.recomputeDistances()
	return b
}

func (b *refTree) addNode(pos geom.Point, cell comm.CellID) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Pos: pos, Cell: cell})
	b.parent = append(b.parent, -1)
	b.children = append(b.children, nil)
	b.wire = append(b.wire, nil)
	b.edgeLen = append(b.edgeLen, 0)
	b.extra = append(b.extra, 0)
	if cell != comm.Host {
		b.cellNode[cell] = id
	}
	return id
}

func (b *refTree) child(parent NodeID, pos geom.Point, cell comm.CellID) NodeID {
	wire := refRectilinear(b.nodes[parent].Pos, pos)
	id := b.addNode(pos, cell)
	b.parent[id] = parent
	b.edgeLen[id] = wire.Length()
	b.children[parent] = append(b.children[parent], id)
	b.wire[id] = wire
	return id
}

func (b *refTree) recomputeDistances() {
	b.rootDist = make([]float64, len(b.nodes))
	stack := []NodeID{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p := b.parent[v]; p >= 0 {
			b.rootDist[v] = b.rootDist[p] + (b.edgeLen[v] + b.extra[v])
		} else {
			b.rootDist[v] = 0
		}
		stack = append(stack, b.children[v]...)
	}
}

func refRectilinear(a, b geom.Point) geom.Path {
	if a.Eq(b, 0) {
		return geom.Path{a}
	}
	corner := geom.Point{X: b.X, Y: a.Y}
	if corner.Eq(a, 0) || corner.Eq(b, 0) {
		return geom.Path{a, b}
	}
	return geom.Path{a, corner, b}
}

func refBuildHTree(b *refTree, parent NodeID, cells []comm.Cell) {
	if len(cells) == 1 {
		b.child(parent, cells[0].Pos, cells[0].ID)
		return
	}
	lo, hi := refSplitCells(cells)
	for _, half := range [][]comm.Cell{lo, hi} {
		if len(half) == 1 {
			b.child(parent, half[0].Pos, half[0].ID)
			continue
		}
		mid := b.child(parent, refBBoxCenter(half), comm.Host)
		refBuildHTree(b, mid, half)
	}
}

func refSplitCells(cells []comm.Cell) (lo, hi []comm.Cell) {
	r := geom.EmptyRect()
	for _, c := range cells {
		r = r.Union(geom.Rect{Min: c.Pos, Max: c.Pos})
	}
	byX := r.Width() >= r.Height()
	m := len(cells) / 2
	refSelectCells(cells, m, byX)
	return cells[:m], cells[m:]
}

func refCellLess(a, b comm.Cell, byX bool) bool {
	if byX {
		if a.Pos.X != b.Pos.X {
			return a.Pos.X < b.Pos.X
		}
		return a.Pos.Y < b.Pos.Y
	}
	if a.Pos.Y != b.Pos.Y {
		return a.Pos.Y < b.Pos.Y
	}
	return a.Pos.X < b.Pos.X
}

func refSelectCells(cells []comm.Cell, k int, byX bool) {
	if k <= 0 || k >= len(cells) {
		return
	}
	less := func(i, j int) bool { return refCellLess(cells[i], cells[j], byX) }
	lo, hi := 0, len(cells)
	budget := 2 * bitsLen(len(cells))
	for hi-lo > 16 {
		if budget == 0 {
			sort.Slice(cells[lo:hi], func(i, j int) bool { return less(lo+i, lo+j) })
			return
		}
		budget--
		pivot := refMedianOfThreeCells(cells[lo], cells[lo+(hi-lo)/2], cells[hi-1], byX)
		lt, gt, i := lo, hi, lo
		for i < gt {
			switch {
			case refCellLess(cells[i], pivot, byX):
				cells[i], cells[lt] = cells[lt], cells[i]
				lt++
				i++
			case refCellLess(pivot, cells[i], byX):
				gt--
				cells[i], cells[gt] = cells[gt], cells[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(j, j-1); j-- {
			cells[j], cells[j-1] = cells[j-1], cells[j]
		}
	}
}

func refMedianOfThreeCells(a, b, c comm.Cell, byX bool) comm.Cell {
	if refCellLess(b, a, byX) {
		a, b = b, a
	}
	if refCellLess(c, b, byX) {
		b = c
		if refCellLess(b, a, byX) {
			b = a
		}
	}
	return b
}

func refBBoxCenter(cells []comm.Cell) geom.Point {
	r := geom.EmptyRect()
	for _, c := range cells {
		r = r.Union(geom.Rect{Min: c.Pos, Max: c.Pos})
	}
	return geom.Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
}

// samePoint compares two points bit for bit, so −0 and +0 differ.
func samePoint(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// diffReference fails t unless got is want node for node, at tolerance
// 0: position, cell, parent, child list, edge length, wire point by
// point, root distance, and the cell index.
func diffReference(t *testing.T, got *Tree, want *refTree) {
	t.Helper()
	if got.NumNodes() != len(want.nodes) || got.Root() != 0 {
		t.Fatalf("%s: %d nodes rooted at %d, want %d rooted at 0", got.Name, got.NumNodes(), got.Root(), len(want.nodes))
	}
	for v := range want.nodes {
		id := NodeID(v)
		gn, wn := got.Node(id), want.nodes[v]
		if gn.ID != wn.ID || gn.Cell != wn.Cell || gn.Buffer != wn.Buffer || !samePoint(gn.Pos, wn.Pos) {
			t.Fatalf("%s: node %d is %+v, want %+v", got.Name, v, gn, wn)
		}
		if got.Parent(id) != want.parent[v] {
			t.Fatalf("%s: parent of %d is %d, want %d", got.Name, v, got.Parent(id), want.parent[v])
		}
		if gk, wk := got.Children(id), want.children[v]; len(gk) != len(wk) {
			t.Fatalf("%s: children of %d are %v, want %v", got.Name, v, gk, wk)
		} else {
			for i := range wk {
				if gk[i] != wk[i] {
					t.Fatalf("%s: children of %d are %v, want %v", got.Name, v, gk, wk)
				}
			}
		}
		if g, w := got.EdgeLen(id), want.edgeLen[v]+want.extra[v]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: EdgeLen(%d) = %v, want %v", got.Name, v, g, w)
		}
		gw, ww := got.Wire(id), want.wire[v]
		if len(gw) != len(ww) {
			t.Fatalf("%s: wire of %d is %v, want %v", got.Name, v, gw, ww)
		}
		for i := range ww {
			if !samePoint(gw[i], ww[i]) {
				t.Fatalf("%s: wire of %d is %v, want %v", got.Name, v, gw, ww)
			}
		}
		if g, w := got.RootDist(id), want.rootDist[v]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: RootDist(%d) = %v, want %v", got.Name, v, g, w)
		}
	}
	for c, w := range want.cellNode {
		if g, ok := got.CellNode(c); !ok || g != w {
			t.Fatalf("%s: CellNode(%d) = %d, %v; want %d", got.Name, c, g, ok, w)
		}
	}
	for c := comm.CellID(0); int(c) < len(got.cellNode); c++ {
		if _, ok := got.CellNode(c); ok {
			if _, want := want.cellNode[c]; !want {
				t.Fatalf("%s: cell %d clocked, but not by the reference", got.Name, c)
			}
		}
	}
}

// signedZeroGraph lays cells out on the given positions as a linear
// array, so H-tree bounding boxes meet −0 and +0 coordinates in both
// orders: a box over {−0 first, +0 later} must still span [−0, +0]
// exactly as math.Min/math.Max fold it.
func signedZeroGraph(t *testing.T, name string, pos []geom.Point) *comm.Graph {
	t.Helper()
	g := &comm.Graph{Kind: comm.KindLinear, Name: name}
	for i, p := range pos {
		g.Cells = append(g.Cells, comm.Cell{ID: comm.CellID(i), Pos: p})
	}
	g.Edges = append(g.Edges, comm.Edge{From: comm.Host, To: 0, Label: "x"})
	for i := 0; i+1 < len(pos); i++ {
		g.Edges = append(g.Edges, comm.Edge{From: comm.CellID(i), To: comm.CellID(i + 1), Label: "x"})
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHTreeMatchesReference(t *testing.T) {
	nz := math.Copysign(0, -1)
	var graphs []*comm.Graph
	for _, build := range []func() (*comm.Graph, error){
		func() (*comm.Graph, error) { return comm.Mesh(1, 1) },
		func() (*comm.Graph, error) { return comm.Mesh(1, 9) },
		func() (*comm.Graph, error) { return comm.Mesh(1, 64) },
		func() (*comm.Graph, error) { return comm.Mesh(2, 2) },
		func() (*comm.Graph, error) { return comm.Mesh(3, 3) },
		func() (*comm.Graph, error) { return comm.Mesh(5, 7) },
		func() (*comm.Graph, error) { return comm.Mesh(16, 16) },
		func() (*comm.Graph, error) { return comm.Mesh(33, 17) },
		func() (*comm.Graph, error) { return comm.Mesh(63, 71) },
		func() (*comm.Graph, error) { return comm.Torus(3, 5) },
		func() (*comm.Graph, error) { return comm.Torus(8, 8) },
		func() (*comm.Graph, error) { return comm.Hex(4) },
		func() (*comm.Graph, error) { return comm.Hex(7) },
		func() (*comm.Graph, error) { return comm.Linear(1) },
		func() (*comm.Graph, error) { return comm.Linear(23) },
		func() (*comm.Graph, error) { return comm.CompleteBinaryTree(5) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs,
		signedZeroGraph(t, "zero-column", []geom.Point{
			geom.Pt(nz, 0), geom.Pt(0, 1), geom.Pt(nz, 2), geom.Pt(0, 3), geom.Pt(nz, 4)}),
		signedZeroGraph(t, "zero-row", []geom.Point{
			geom.Pt(0, nz), geom.Pt(1, 0), geom.Pt(2, nz), geom.Pt(3, nz)}),
		signedZeroGraph(t, "zero-plane", []geom.Point{
			geom.Pt(nz, nz), geom.Pt(0, 1), geom.Pt(1, 0), geom.Pt(nz, 2),
			geom.Pt(2, nz), geom.Pt(-1, 1), geom.Pt(1, -1), geom.Pt(nz, -2)}),
	)
	for _, g := range graphs {
		tree, err := HTree(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		diffReference(t, tree, referenceHTree(g))
	}
}
