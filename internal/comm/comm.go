// Package comm models the paper's COMM graphs (assumption A1): directed
// graphs of unit-area cells laid out in the plane, whose edges are wires
// carrying one data item per cycle from source to target. It provides the
// array topologies the paper discusses — linear, ring, mesh, hexagonal,
// torus, and complete binary tree — each with a concrete planar layout,
// plus host I/O attachment points.
package comm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/graph"
)

// CellID identifies a cell within a Graph; IDs are dense in [0, NumCells).
type CellID int

// Host is the pseudo-cell ID used as the endpoint of host I/O edges.
const Host CellID = -1

// Cell is one processing element (A1/A2: a unit-area node of COMM).
type Cell struct {
	ID  CellID
	Pos geom.Point // center of the cell in the layout, cell-pitch units
	// Row and Col give grid coordinates where the topology has them
	// (meshes, linear arrays); both are 0 for topologies without a grid.
	Row, Col int
}

// Edge is a directed communication edge of COMM (A1): a wire that delivers
// one data item from From to To each cycle. From or To may be Host for
// array boundary I/O.
type Edge struct {
	From, To CellID
	// Label distinguishes parallel logical channels between the same pair
	// of cells (e.g. a systolic cell passing both a weight and a partial
	// sum to the same neighbor).
	Label string
}

// Kind names the topology family of a Graph.
type Kind string

// Topology kinds built by this package.
const (
	KindLinear Kind = "linear"
	KindRing   Kind = "ring"
	KindMesh   Kind = "mesh"
	KindHex    Kind = "hex"
	KindTorus  Kind = "torus"
	KindTree   Kind = "tree"
)

// Graph is an ideally synchronized processor array's communication graph,
// laid out in the plane.
type Graph struct {
	Kind  Kind
	Name  string
	Cells []Cell
	Edges []Edge

	// Rows and Cols are the grid dimensions for grid-shaped topologies
	// (Rows == 1 for linear arrays); 0 when not applicable.
	Rows, Cols int

	byPos map[[2]int]CellID

	// memo caches the pair index. It is a pointer so Graph values
	// remain assignable (UnmarshalJSON) without copying a sync.Once; the
	// package constructors allocate it, and a nil memo (hand-built Graph
	// literals) degrades to uncached enumeration.
	memo *graphMemo
}

// graphMemo holds the graph's CSR pair index (PairIndex), built once on
// first use. After that first use the edge set is frozen: the index is
// what every analysis engine iterates, so a mutation that silently
// missed it would corrupt results. numEdges and fingerprint record the
// edge count and an FNV-1a content hash at memoization time to detect
// (and panic on) late mutation — the count alone would miss a mutation
// that rewires an edge in place.
type graphMemo struct {
	once        sync.Once
	idx         *PairIndex
	numEdges    int
	fingerprint uint64
}

// edgeFingerprint hashes the edge set's content (endpoints and labels,
// in order) with FNV-1a. It is O(edges) with no allocation — cheap
// enough to recompute on every PairIndex call — and changes
// under any in-place edge rewrite, including count-preserving ones.
func (g *Graph) edgeFingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, e := range g.Edges {
		word(uint64(int64(e.From)))
		word(uint64(int64(e.To)))
		for i := 0; i < len(e.Label); i++ {
			h ^= uint64(e.Label[i])
			h *= prime64
		}
		h ^= 0xff // label terminator so ("ab","c") ≠ ("a","bc")
		h *= prime64
	}
	return h
}

// NumCells returns the number of cells.
func (g *Graph) NumCells() int { return len(g.Cells) }

// Cell returns the cell with the given ID; it panics for Host or
// out-of-range IDs.
func (g *Graph) Cell(id CellID) Cell {
	if id < 0 || int(id) >= len(g.Cells) {
		panic(fmt.Sprintf("comm: no cell %d", id))
	}
	return g.Cells[id]
}

// CellAt returns the cell at grid coordinates (row, col), if any.
func (g *Graph) CellAt(row, col int) (Cell, bool) {
	id, ok := g.byPos[[2]int{row, col}]
	if !ok {
		return Cell{}, false
	}
	return g.Cells[id], true
}

// CommunicatingPairs returns every unordered pair of distinct cells joined
// by at least one communication edge (host edges excluded), each pair once
// with a < b, in PairIndex order (a-major, b-ascending). These are exactly
// the pairs whose clock skew matters (A5).
//
// It is a fresh expansion of PairIndex at 16 bytes per pair, kept for
// callers that want the pairs as values; engines iterate the index with a
// PairCursor instead. The freeze-on-first-use contract is PairIndex's: a
// mutation of the edge set after the first call panics.
func (g *Graph) CommunicatingPairs() [][2]CellID {
	ix := g.PairIndex()
	out := make([][2]CellID, 0, ix.NumPairs())
	c := ix.Cursor(0)
	for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
		out = append(out, [2]CellID{a, b})
	}
	return out
}

// HostEdges returns the edges that connect the array to the host.
func (g *Graph) HostEdges() []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.From == Host || e.To == Host {
			out = append(out, e)
		}
	}
	return out
}

// Bounds returns the bounding rectangle of the cell layout, expanded by
// half a cell pitch on each side so each unit-area cell fits (A2).
func (g *Graph) Bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, c := range g.Cells {
		r = r.Union(geom.Rect{Min: c.Pos, Max: c.Pos})
	}
	return r.Expand(0.5)
}

// Undirected returns the simple undirected graph underlying COMM (host
// edges and duplicate/parallel edges dropped), for use with the bisection
// machinery of Section V-B.
func (g *Graph) Undirected() *graph.Graph {
	u := graph.New(len(g.Cells))
	c := g.PairIndex().Cursor(0)
	for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
		if err := u.AddEdge(int(a), int(b)); err != nil {
			panic(err) // PairIndex deduplicates, so this cannot happen
		}
	}
	return u
}

// MaxEdgeLength returns the longest straight-line distance between any two
// communicating cells in the layout. For the paper's bounded-delay arrays
// this must remain O(1) as the array grows.
func (g *Graph) MaxEdgeLength() float64 {
	var m float64
	c := g.PairIndex().Cursor(0)
	for a, b, ok := c.Next(); ok; a, b, ok = c.Next() {
		if d := g.Cells[a].Pos.Dist(g.Cells[b].Pos); d > m {
			m = d
		}
	}
	return m
}

// Validate checks structural invariants: cell IDs dense and matching
// indices, edges referencing valid cells, and distinct cell positions.
func (g *Graph) Validate() error {
	positions := make(map[geom.Point]CellID, len(g.Cells))
	for i, c := range g.Cells {
		if int(c.ID) != i {
			return fmt.Errorf("comm: cell at index %d has ID %d", i, c.ID)
		}
		if prev, dup := positions[c.Pos]; dup {
			return fmt.Errorf("comm: cells %d and %d share position %v", prev, c.ID, c.Pos)
		}
		positions[c.Pos] = c.ID
	}
	for _, e := range g.Edges {
		for _, end := range []CellID{e.From, e.To} {
			if end != Host && (end < 0 || int(end) >= len(g.Cells)) {
				return fmt.Errorf("comm: edge %v references unknown cell %d", e, end)
			}
		}
		if e.From == e.To {
			return fmt.Errorf("comm: self-loop edge on cell %d", e.From)
		}
	}
	return nil
}

func newGraph(kind Kind, name string, rows, cols int) *Graph {
	return &Graph{Kind: kind, Name: name, Rows: rows, Cols: cols,
		byPos: make(map[[2]int]CellID), memo: &graphMemo{}}
}

func (g *Graph) addCell(row, col int, pos geom.Point) CellID {
	id := CellID(len(g.Cells))
	g.Cells = append(g.Cells, Cell{ID: id, Pos: pos, Row: row, Col: col})
	g.byPos[[2]int{row, col}] = id
	return id
}

// Linear returns an n-cell one-dimensional array (Fig. 4(a)): cells at
// (0,0)…(n−1,0), data flowing left to right, with host edges at both ends.
func Linear(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: Linear needs n ≥ 1, got %d", n)
	}
	g := newGraph(KindLinear, fmt.Sprintf("linear-%d", n), 1, n)
	for i := 0; i < n; i++ {
		g.addCell(0, i, geom.Pt(float64(i), 0))
	}
	g.Edges = append(g.Edges, Edge{From: Host, To: 0, Label: "x"})
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, Edge{From: CellID(i), To: CellID(i + 1), Label: "x"})
	}
	g.Edges = append(g.Edges, Edge{From: CellID(n - 1), To: Host, Label: "x"})
	return g, nil
}

// Bidirectional returns an n-cell linear array with edges in both
// directions between neighbors, as used by systolic algorithms with
// counter-flowing data streams.
func Bidirectional(n int) (*Graph, error) {
	g, err := Linear(n)
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("bidi-%d", n)
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, Edge{From: CellID(i + 1), To: CellID(i), Label: "y"})
	}
	g.Edges = append(g.Edges, Edge{From: 0, To: Host, Label: "y"})
	g.Edges = append(g.Edges, Edge{From: Host, To: CellID(n - 1), Label: "y"})
	return g, nil
}

// LinearDual returns an n-cell one-dimensional array carrying two
// parallel unidirectional streams "x" and "y", both flowing left to right
// — the wiring shape of systolic FIR filters and Horner evaluators, where
// data and partial results travel together.
func LinearDual(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: LinearDual needs n ≥ 1, got %d", n)
	}
	g := newGraph(KindLinear, fmt.Sprintf("lineardual-%d", n), 1, n)
	for i := 0; i < n; i++ {
		g.addCell(0, i, geom.Pt(float64(i), 0))
	}
	for _, label := range []string{"x", "y"} {
		g.Edges = append(g.Edges, Edge{From: Host, To: 0, Label: label})
		for i := 0; i+1 < n; i++ {
			g.Edges = append(g.Edges, Edge{From: CellID(i), To: CellID(i + 1), Label: label})
		}
		g.Edges = append(g.Edges, Edge{From: CellID(n - 1), To: Host, Label: label})
	}
	return g, nil
}

// Ring returns an n-cell ring laid out on a rectangle perimeter so that
// neighboring cells stay at bounded distance.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("comm: Ring needs n ≥ 3, got %d", n)
	}
	g := newGraph(KindRing, fmt.Sprintf("ring-%d", n), 0, 0)
	for i := 0; i < n; i++ {
		g.addCell(0, i, ringPos(i, n))
	}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, Edge{From: CellID(i), To: CellID((i + 1) % n), Label: "x"})
	}
	return g, nil
}

// ringPos flattens the loop into two facing rows (a hairpin): cells 0..⌈n/2⌉−1
// run left to right on row 0 and the rest return right to left on row 1,
// so every ring neighbor — including the wrap-around pair — sits within
// distance √2.
func ringPos(i, n int) geom.Point {
	half := (n + 1) / 2
	if i < half {
		return geom.Pt(float64(i), 0)
	}
	return geom.Pt(float64(n-1-i), 1)
}

// Mesh returns an r×c two-dimensional mesh (Fig. 3(b) communication
// structure): nearest-neighbor edges in both directions along rows and
// columns, with host edges on the west edge of row 0.
func Mesh(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("comm: Mesh needs positive dims, got %d×%d", rows, cols)
	}
	g := newGraph(KindMesh, fmt.Sprintf("mesh-%dx%d", rows, cols), rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.addCell(r, c, geom.Pt(float64(c), float64(r)))
		}
	}
	id := func(r, c int) CellID { return CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.Edges = append(g.Edges,
					Edge{From: id(r, c), To: id(r, c+1), Label: "e"},
					Edge{From: id(r, c+1), To: id(r, c), Label: "w"})
			}
			if r+1 < rows {
				g.Edges = append(g.Edges,
					Edge{From: id(r, c), To: id(r+1, c), Label: "n"},
					Edge{From: id(r+1, c), To: id(r, c), Label: "s"})
			}
		}
	}
	g.Edges = append(g.Edges, Edge{From: Host, To: id(0, 0), Label: "in"})
	g.Edges = append(g.Edges, Edge{From: id(rows-1, cols-1), To: Host, Label: "out"})
	return g, nil
}

// MeshWithBoundaryIO returns an r×c mesh whose west boundary cells each
// receive a host stream flowing east (label "e") and whose row-0 boundary
// cells each receive a host stream flowing toward increasing rows (label
// "n"), with matching host outputs on the opposite boundaries. This is the
// I/O shape two-dimensional systolic algorithms such as matrix
// multiplication need.
func MeshWithBoundaryIO(rows, cols int) (*Graph, error) {
	g, err := Mesh(rows, cols)
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("meshio-%dx%d", rows, cols)
	// Drop the single corner-to-corner host edges from Mesh.
	edges := g.Edges[:0]
	for _, e := range g.Edges {
		if e.From != Host && e.To != Host {
			edges = append(edges, e)
		}
	}
	g.Edges = edges
	id := func(r, c int) CellID { return CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		g.Edges = append(g.Edges,
			Edge{From: Host, To: id(r, 0), Label: "e"},
			Edge{From: id(r, cols-1), To: Host, Label: "e"})
	}
	for c := 0; c < cols; c++ {
		g.Edges = append(g.Edges,
			Edge{From: Host, To: id(0, c), Label: "n"},
			Edge{From: id(rows-1, c), To: Host, Label: "n"})
	}
	return g, nil
}

// Hex returns a hexagonal array with the given number of cells per side
// (Fig. 3(c)): a rhombus-shaped region of a triangular grid where each
// interior cell communicates with six neighbors.
func Hex(side int) (*Graph, error) {
	if side < 1 {
		return nil, fmt.Errorf("comm: Hex needs side ≥ 1, got %d", side)
	}
	g := newGraph(KindHex, fmt.Sprintf("hex-%d", side), side, side)
	dx, dy := 1.0, math.Sqrt(3)/2
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			x := float64(c) + float64(r)*0.5
			g.addCell(r, c, geom.Pt(x*dx, float64(r)*dy))
		}
	}
	id := func(r, c int) CellID { return CellID(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			// Three of the six hex directions; the reverse edges complete
			// the other three.
			if c+1 < side {
				g.Edges = append(g.Edges,
					Edge{From: id(r, c), To: id(r, c+1), Label: "e"},
					Edge{From: id(r, c+1), To: id(r, c), Label: "w"})
			}
			if r+1 < side {
				g.Edges = append(g.Edges,
					Edge{From: id(r, c), To: id(r+1, c), Label: "ne"},
					Edge{From: id(r+1, c), To: id(r, c), Label: "sw"})
			}
			if r+1 < side && c-1 >= 0 {
				g.Edges = append(g.Edges,
					Edge{From: id(r, c), To: id(r+1, c-1), Label: "nw"},
					Edge{From: id(r+1, c-1), To: id(r, c), Label: "se"})
			}
		}
	}
	return g, nil
}

// HexWithBandIO returns a w×w hexagonal array (Fig. 3(c)) wired for band
// matrix multiplication: the A stream enters each row from the west
// (label "e"), the B stream enters each column from the south-west
// boundary (label "ne"), and accumulated C values leave along the "se"
// direction from the u=0 and v=w−1 boundaries.
func HexWithBandIO(w int) (*Graph, error) {
	g, err := Hex(w)
	if err != nil {
		return nil, err
	}
	g.Name = fmt.Sprintf("hexio-%d", w)
	id := func(u, v int) CellID { return CellID(u*w + v) }
	for u := 0; u < w; u++ {
		g.Edges = append(g.Edges, Edge{From: Host, To: id(u, 0), Label: "e"})
	}
	for v := 0; v < w; v++ {
		g.Edges = append(g.Edges, Edge{From: Host, To: id(0, v), Label: "ne"})
		g.Edges = append(g.Edges, Edge{From: id(0, v), To: Host, Label: "se"})
	}
	for u := 1; u < w; u++ {
		g.Edges = append(g.Edges, Edge{From: id(u, w-1), To: Host, Label: "se"})
	}
	return g, nil
}

// Torus returns an r×c torus: a mesh with wraparound edges. Wraparound
// wires in this flat layout have length proportional to the array side —
// the torus is an example of a COMM graph that cannot keep communication
// delay bounded in a naive layout.
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("comm: Torus needs dims ≥ 3, got %d×%d", rows, cols)
	}
	g, err := Mesh(rows, cols)
	if err != nil {
		return nil, err
	}
	g.Kind = KindTorus
	g.Name = fmt.Sprintf("torus-%dx%d", rows, cols)
	id := func(r, c int) CellID { return CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		g.Edges = append(g.Edges,
			Edge{From: id(r, cols-1), To: id(r, 0), Label: "wrap-e"},
			Edge{From: id(r, 0), To: id(r, cols-1), Label: "wrap-w"})
	}
	for c := 0; c < cols; c++ {
		g.Edges = append(g.Edges,
			Edge{From: id(rows-1, c), To: id(0, c), Label: "wrap-n"},
			Edge{From: id(0, c), To: id(rows-1, c), Label: "wrap-s"})
	}
	return g, nil
}

// CompleteBinaryTree returns a complete binary tree COMM graph with the
// given number of levels, laid out as an H-tree so that an N-node tree
// occupies O(N) area (Section VIII). Edges run both parent→child and
// child→parent. Node 0 is the root; node v has children 2v+1 and 2v+2.
func CompleteBinaryTree(levels int) (*Graph, error) {
	if levels < 1 || levels > 24 {
		return nil, fmt.Errorf("comm: CompleteBinaryTree needs 1 ≤ levels ≤ 24, got %d", levels)
	}
	n := (1 << levels) - 1
	g := newGraph(KindTree, fmt.Sprintf("tree-%d", levels), 0, 0)
	pos := make([]geom.Point, n)
	hTreePositions(pos, 0, geom.Pt(0, 0), levels, true)
	for v := 0; v < n; v++ {
		g.addCell(0, v, pos[v])
	}
	for v := 0; 2*v+2 < n; v++ {
		for _, ch := range []int{2*v + 1, 2*v + 2} {
			g.Edges = append(g.Edges,
				Edge{From: CellID(v), To: CellID(ch), Label: "down"},
				Edge{From: CellID(ch), To: CellID(v), Label: "up"})
		}
	}
	g.Edges = append(g.Edges, Edge{From: Host, To: 0, Label: "in"}, Edge{From: 0, To: Host, Label: "out"})
	return g, nil
}

// hTreePositions recursively places the subtree rooted at v (heap index)
// at center, with `levels` levels remaining, alternating split directions.
// The arm length halves every two levels, the classic H-tree recursion,
// giving O(N) total area.
func hTreePositions(pos []geom.Point, v int, center geom.Point, levels int, horizontal bool) {
	pos[v] = center
	if levels <= 1 {
		return
	}
	arm := math.Pow(2, float64(levels-1)/2)
	var d geom.Point
	if horizontal {
		d = geom.Pt(arm, 0)
	} else {
		d = geom.Pt(0, arm)
	}
	hTreePositions(pos, 2*v+1, center.Sub(d), levels-1, !horizontal)
	hTreePositions(pos, 2*v+2, center.Add(d), levels-1, !horizontal)
}
