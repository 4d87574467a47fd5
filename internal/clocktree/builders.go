package clocktree

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/stats"
)

// Spine builds the one-dimensional clocking scheme of Theorem 3 (Fig. 4):
// a clock wire running along the array, visiting the cells in ID order.
// The tree is a degenerate binary tree (a chain), so the tree path between
// adjacent cells is just the wire between them — bounded regardless of
// array size, which is exactly why the scheme survives the summation
// model. The same construction clocks folded (Fig. 5) and comb (Fig. 6)
// layouts, since those only reposition the cells while keeping successive
// cells adjacent.
func Spine(g *comm.Graph) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: Spine on empty graph")
	}
	b := NewBuilder("spine/" + g.Name)
	prev := b.Root(g.Cells[0].Pos, g.Cells[0].ID)
	for _, c := range g.Cells[1:] {
		prev = b.Child(prev, c.Pos, c.ID, nil)
	}
	return b.Finalize()
}

// SpineWithHost is Spine with an extra root node at hostPos representing
// the host interface, so host-to-cell skews can be analyzed (the concern
// Fig. 5's folded layout addresses).
func SpineWithHost(g *comm.Graph, hostPos geom.Point) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: SpineWithHost on empty graph")
	}
	b := NewBuilder("spine+host/" + g.Name)
	prev := b.Root(hostPos, comm.Host)
	for _, c := range g.Cells {
		prev = b.Child(prev, c.Pos, c.ID, nil)
	}
	return b.Finalize()
}

// Ladder builds the constant-skew clock for ring arrays: ring layouts in
// this repository place the cells in two facing rows (a flattened loop),
// and the ladder runs a spine between the rows with a short rung to each
// cell. Every ring pair — including the wrap-around pair, which a simple
// chain spine would leave a full chain apart — then sits within a
// constant tree distance, matching the ring's O(1) bisection width (the
// Section V-B bound poses no obstruction to rings).
func Ladder(g *comm.Graph) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: Ladder on empty graph")
	}
	// Group cells into the two rows by y coordinate.
	ys := map[float64][]comm.Cell{}
	for _, c := range g.Cells {
		ys[c.Pos.Y] = append(ys[c.Pos.Y], c)
	}
	if len(ys) > 2 {
		return nil, fmt.Errorf("clocktree: Ladder needs a ≤2-row layout, %q has %d rows", g.Name, len(ys))
	}
	var rows []float64
	for y := range ys {
		rows = append(rows, y)
	}
	sort.Float64s(rows)
	midY := rows[0]
	if len(rows) == 2 {
		midY = (rows[0] + rows[1]) / 2
	} else {
		midY += 0.5
	}
	// One rung position per distinct x, in x order.
	byX := map[float64][]comm.Cell{}
	var xs []float64
	for _, c := range g.Cells {
		if _, seen := byX[c.Pos.X]; !seen {
			xs = append(xs, c.Pos.X)
		}
		byX[c.Pos.X] = append(byX[c.Pos.X], c)
	}
	sort.Float64s(xs)
	b := NewBuilder("ladder/" + g.Name)
	prev := b.Root(geom.Pt(xs[0], midY), comm.Host)
	for i, x := range xs {
		node := prev
		if i > 0 {
			node = b.Child(prev, geom.Pt(x, midY), comm.Host, nil)
		}
		cells := byX[x]
		if len(cells) > 2 {
			return nil, fmt.Errorf("clocktree: Ladder rung at x=%g has %d cells", x, len(cells))
		}
		// Keep branching binary (A4): the second cell of a rung hangs off
		// the first.
		rung := node
		for _, c := range cells {
			rung = b.Child(rung, c.Pos, c.ID, nil)
		}
		prev = node
	}
	return b.Finalize()
}

// Serpentine builds a chain clock over a 2D grid layout in boustrophedon
// row order. It is the natural attempt to extend Theorem 3's spine to two
// dimensions — and the Section V-B lower bound says it must fail: cells
// adjacent in the same column but consecutive-row-apart are Θ(row length)
// apart along the chain.
func Serpentine(g *comm.Graph) (*Tree, error) {
	if g.Rows < 1 || g.Cols < 1 {
		return nil, fmt.Errorf("clocktree: Serpentine needs a grid-shaped graph, got %q", g.Name)
	}
	b := NewBuilder("serpentine/" + g.Name)
	var prev NodeID
	first := true
	for r := 0; r < g.Rows; r++ {
		for k := 0; k < g.Cols; k++ {
			c := k
			if r%2 == 1 {
				c = g.Cols - 1 - k
			}
			cell, ok := g.CellAt(r, c)
			if !ok {
				return nil, fmt.Errorf("clocktree: grid hole at (%d,%d) in %q", r, c, g.Name)
			}
			if first {
				prev = b.Root(cell.Pos, cell.ID)
				first = false
			} else {
				prev = b.Child(prev, cell.Pos, cell.ID, nil)
			}
		}
	}
	return b.Finalize()
}

// HTree builds a recursive H-tree over the cells of g (Fig. 3): the cell
// set is split at the bounding-box center along its longer axis, an
// internal node is placed at each region's center, and wires run
// rectilinearly between region centers. On 2^k × 2^k meshes this is the
// classical H-tree; on other bounded-aspect-ratio layouts it is the
// kd-tree generalization Lemma 1 needs. Call Equalize on the result to
// tune all cell root distances exactly equal (the difference-model
// regime of Theorem 2).
func HTree(g *comm.Graph) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: HTree on empty graph")
	}
	return buildHTreeWith(g, NewBuilder("htree/"+g.Name))
}

// HTreeCompact builds the same H-tree as HTree — same name, node IDs,
// edge lengths, and bit-identical root distances — in compact mode: wire
// routes and child lists are not retained and no O(1)-LCA table is
// built, so the result fits arrays far past what a full tree can hold.
// LCA queries fall back to the O(depth) parent walk, which stays
// O(log n) on the balanced trees this builder produces. Equalize works;
// Buffered does not (it needs the wire geometry).
func HTreeCompact(g *comm.Graph) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: HTreeCompact on empty graph")
	}
	return buildHTreeWith(g, NewCompactBuilder("htree/"+g.Name))
}

func buildHTreeWith(g *comm.Graph, b *Builder) (*Tree, error) {
	n := len(g.Cells)
	b.reserve(2*n-1, n)
	cells := flatCells(g.Cells)
	if n == 1 {
		b.Root(cells[0].pos(), cells[0].ID)
		return b.Finalize()
	}
	box := bbox(cells)
	root := b.Root(center(box), comm.Host)
	buildHTree(b, root, cells, box)
	return b.Finalize()
}

// buildHTree attaches the H-tree over cells (at least two, with bounding
// box box) below the given parent node.
func buildHTree(b *Builder, parent NodeID, cells []hcell, box geom.Rect) {
	lo, hi := splitCells(cells, box)
	for _, half := range [2][]hcell{lo, hi} {
		if len(half) == 1 {
			b.Child(parent, half[0].pos(), half[0].ID, nil)
			continue
		}
		hbox := bbox(half)
		mid := b.Child(parent, center(hbox), comm.Host, nil)
		buildHTree(b, mid, half, hbox)
	}
}

// hcell is the flat (position, ID) record the recursive builders
// partition: 24 bytes against comm.Cell's 40, and nothing they do not
// read.
type hcell struct {
	X, Y float64
	ID   comm.CellID
}

func (c hcell) pos() geom.Point { return geom.Pt(c.X, c.Y) }

// flatCells copies cells into a fresh hcell scratch.
func flatCells(src []comm.Cell) []hcell {
	cells := make([]hcell, len(src))
	for i, c := range src {
		cells[i] = hcell{X: c.Pos.X, Y: c.Pos.Y, ID: c.ID}
	}
	return cells
}

// bbox returns the bounding box of cells, equal bit for bit to folding
// geom.Rect.Union over them: the builtin min and max keep math.Min and
// math.Max semantics (−0 below +0, NaN absorbing), and from the empty
// rectangle's infinite corners the first cell sets the box exactly as
// Union's empty-operand case does.
func bbox(cells []hcell) geom.Rect {
	r := geom.EmptyRect()
	for _, c := range cells {
		r.Min.X, r.Max.X = min(r.Min.X, c.X), max(r.Max.X, c.X)
		r.Min.Y, r.Max.Y = min(r.Min.Y, c.Y), max(r.Max.Y, c.Y)
	}
	return r
}

// center returns the midpoint of r, where the H-tree places a region's
// branch node.
func center(r geom.Rect) geom.Point {
	return geom.Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
}

// splitCells halves the cell set, whose bounding box is box, at the
// median along the box's longer axis, partitioning in place: on return,
// cells[:m] holds the m = len/2 smallest cells under the axis order and
// cells[m:] the rest. The halves are the same *sets* a full sort would
// produce (cell positions are distinct, so the axis comparator is a
// total order and the median cut is unique), but selection runs in O(n)
// expected time instead of O(n log n) and allocates nothing. Tree
// construction only consumes the halves as sets (bounding-box centers
// and further splits), so the built tree is identical node for node.
func splitCells(cells []hcell, box geom.Rect) (lo, hi []hcell) {
	byX := box.Width() >= box.Height()
	m := len(cells) / 2
	selectCells(cells, m, byX)
	return cells[:m], cells[m:]
}

// cellLess is the axis total order the recursive builders cut on:
// primary axis coordinate, tie-broken by the other coordinate. With
// distinct cell positions no two cells compare equal.
func cellLess(a, b hcell, byX bool) bool {
	if byX {
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// selectCells partially orders cells in place so cells[:k] are the k
// smallest under cellLess. Deterministic quickselect: median-of-three
// pivots with a three-way (Dutch-flag) partition, falling back to a full
// sort of the remaining range if the recursion budget is exhausted, so
// the worst case stays O(n log n) without randomness.
func selectCells(cells []hcell, k int, byX bool) {
	if k <= 0 || k >= len(cells) {
		return
	}
	less := func(i, j int) bool { return cellLess(cells[i], cells[j], byX) }
	lo, hi := 0, len(cells)
	budget := 2 * bitsLen(len(cells))
	for hi-lo > 16 {
		if budget == 0 {
			sortCells(cells[lo:hi], byX)
			return
		}
		budget--
		pivot := medianOfThreeCells(cells[lo], cells[lo+(hi-lo)/2], cells[hi-1], byX)
		// Three-way partition: [lo,lt) < pivot, [lt,gt) == pivot,
		// [gt,hi) > pivot. The middle block is non-empty (the pivot is an
		// element), so the range always shrinks.
		lt, gt, i := lo, hi, lo
		for i < gt {
			switch {
			case cellLess(cells[i], pivot, byX):
				cells[i], cells[lt] = cells[lt], cells[i]
				lt++
				i++
			case cellLess(pivot, cells[i], byX):
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
			return // the cut lands inside the ==-pivot block: done
		}
	}
	// Small ranges: insertion sort finishes the job.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(j, j-1); j-- {
			cells[j], cells[j-1] = cells[j-1], cells[j]
		}
	}
}

// sortCells sorts cells under cellLess.
func sortCells(cells []hcell, byX bool) {
	sort.Slice(cells, func(i, j int) bool { return cellLess(cells[i], cells[j], byX) })
}

// medianOfThreeCells returns the median of a, b, c under cellLess.
func medianOfThreeCells(a, b, c hcell, byX bool) hcell {
	if cellLess(b, a, byX) {
		a, b = b, a
	}
	if cellLess(c, b, byX) {
		b = c
		if cellLess(b, a, byX) {
			b = a
		}
	}
	return b
}

// bitsLen returns the bit length of n (floor(log2 n) + 1 for n > 0).
func bitsLen(n int) int {
	l := 0
	for n > 0 {
		l++
		n >>= 1
	}
	return l
}

// RandomBinary builds a random recursive binary clock tree over the cells
// of g: at each level the cell set is split at a random axis and a random
// position near the median. The Section V-B experiments minimize measured
// skew over many such trees to show that *no* tree escapes the Ω(n) lower
// bound.
func RandomBinary(g *comm.Graph, rng *stats.RNG) (*Tree, error) {
	if g.NumCells() == 0 {
		return nil, fmt.Errorf("clocktree: RandomBinary on empty graph")
	}
	b := NewBuilder(fmt.Sprintf("random%d/%s", rng.Seed(), g.Name))
	b.reserve(2*g.NumCells()-1, g.NumCells())
	cells := flatCells(g.Cells)
	if len(cells) == 1 {
		b.Root(cells[0].pos(), cells[0].ID)
		return b.Finalize()
	}
	root := b.Root(center(bbox(cells)), comm.Host)
	buildRandom(b, root, cells, rng)
	return b.Finalize()
}

// buildRandom attaches a random tree over cells (at least two) below
// parent. It sorts cells in place: each call owns its region of the
// scratch, and the sorted order under the total order cellLess is
// unique, so the tree is the same as sorting a private copy.
func buildRandom(b *Builder, parent NodeID, cells []hcell, rng *stats.RNG) {
	sortCells(cells, rng.Bernoulli(0.5))
	// Split somewhere in the middle half so both sides stay non-empty and
	// the tree depth stays O(log n) with high probability.
	n := len(cells)
	lo := n / 4
	if lo < 1 {
		lo = 1
	}
	hi := n - lo
	if hi <= lo {
		hi = lo + 1
	}
	m := lo + rng.Intn(hi-lo)
	for _, half := range [2][]hcell{cells[:m], cells[m:]} {
		if len(half) == 1 {
			b.Child(parent, half[0].pos(), half[0].ID, nil)
			continue
		}
		mid := b.Child(parent, center(bbox(half)), comm.Host, nil)
		buildRandom(b, mid, half, rng)
	}
}

// AlongCommTree builds the clocking scheme of the paper's concluding
// remarks for COMM graphs that are themselves trees: the clock is
// distributed along the data paths, so each communicating (parent, child)
// pair's clock-tree distance equals its data-wire length. Edge lengths in
// an H-tree layout grow toward the root (Θ(√N) at the top), so the skew
// between communicating cells grows too — but by exactly the same factor
// as the communication delay itself, which is why the paper concludes a
// tree "may be clocked at no loss in asymptotic performance". The COMM
// graph must be a complete binary tree as built by
// comm.CompleteBinaryTree (heap-indexed cells).
func AlongCommTree(g *comm.Graph) (*Tree, error) {
	if g.Kind != comm.KindTree {
		return nil, fmt.Errorf("clocktree: AlongCommTree needs a tree COMM graph, got %q", g.Kind)
	}
	n := g.NumCells()
	if n == 0 {
		return nil, fmt.Errorf("clocktree: AlongCommTree on empty graph")
	}
	b := NewBuilder("datapath/" + g.Name)
	ids := make([]NodeID, n)
	ids[0] = b.Root(g.Cell(0).Pos, 0)
	for v := 0; v < n; v++ {
		for _, ch := range []int{2*v + 1, 2*v + 2} {
			if ch >= n {
				continue
			}
			ids[ch] = b.Child(ids[v], g.Cell(comm.CellID(ch)).Pos, comm.CellID(ch), nil)
		}
	}
	return b.Finalize()
}

// Buffered returns a copy of t with buffer nodes inserted along every wire
// so that no unbuffered segment exceeds spacing (assumption A7: buffers a
// constant distance apart make the per-segment distribution time τ a
// constant independent of array size).
func Buffered(t *Tree, spacing float64) (*Tree, error) {
	if spacing <= 0 {
		return nil, fmt.Errorf("clocktree: Buffered spacing must be positive, got %g", spacing)
	}
	if t.compact {
		return nil, fmt.Errorf("clocktree: Buffered needs wire geometry, which compact tree %q does not retain", t.Name)
	}
	b := NewBuilder(fmt.Sprintf("buffered%.3g/%s", spacing, t.Name))
	// Rebuild top-down, keeping a map from old node IDs to new ones.
	newID := make([]NodeID, t.NumNodes())
	rootNode := t.Node(t.Root())
	newID[t.Root()] = b.Root(rootNode.Pos, rootNode.Cell)
	var walk func(old NodeID)
	walk = func(old NodeID) {
		for _, c := range t.Children(old) {
			parentNew := newID[old]
			wire := t.Wire(c)
			length := wire.Length()
			nseg := int(length / spacing)
			if float64(nseg)*spacing < length-1e-9 {
				nseg++
			}
			if nseg < 1 {
				nseg = 1
			}
			// Insert nseg−1 buffers splitting the wire into nseg pieces.
			remaining := wire
			for i := 1; i < nseg; i++ {
				segLen := length / float64(nseg)
				var piece geom.Path
				piece, remaining = remaining.Split(segLen)
				bufID := b.addNode(piece.End(), comm.Host, true)
				b.link(parentNew, bufID, piece)
				parentNew = bufID
			}
			childNode := t.Node(c)
			newID[c] = b.Child(parentNew, childNode.Pos, childNode.Cell, remaining)
			walk(c)
		}
	}
	walk(t.Root())
	return b.Finalize()
}

// BufferCount returns the number of buffer nodes in the tree.
func (t *Tree) BufferCount() int {
	n := 0
	for _, node := range t.nodes {
		if node.Buffer {
			n++
		}
	}
	return n
}

// MaxSegmentLength returns the longest single wire (unbuffered segment) in
// the tree — the quantity A7's τ is proportional to in a buffered tree.
func (t *Tree) MaxSegmentLength() float64 {
	var m float64
	for v := range t.nodes {
		if l := t.EdgeLen(NodeID(v)); l > m {
			m = l
		}
	}
	return m
}
