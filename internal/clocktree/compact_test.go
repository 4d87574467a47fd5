package clocktree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
	"repro/internal/stats"
)

func compactTestGraphs(t *testing.T) []*comm.Graph {
	t.Helper()
	var out []*comm.Graph
	for _, build := range []func() (*comm.Graph, error){
		func() (*comm.Graph, error) { return comm.Linear(1) },
		func() (*comm.Graph, error) { return comm.Linear(9) },
		func() (*comm.Graph, error) { return comm.Mesh(5, 7) },
		func() (*comm.Graph, error) { return comm.Mesh(8, 8) },
		func() (*comm.Graph, error) { return comm.Hex(4) },
		func() (*comm.Graph, error) { return comm.Torus(3, 5) },
		func() (*comm.Graph, error) { return comm.CompleteBinaryTree(4) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// TestHTreeCompactIdenticalToFull checks the compact build is the same
// tree: same name, node IDs, positions, cells, parents, and bit-identical
// edge lengths and root distances — and that every pairwise distance
// query (LCA, PathLen, DiffDist) agrees exactly with the full tree's
// Euler-tour tables.
func TestHTreeCompactIdenticalToFull(t *testing.T) {
	for _, g := range compactTestGraphs(t) {
		full, err := HTree(g)
		if err != nil {
			t.Fatalf("%s: HTree: %v", g.Name, err)
		}
		compact, err := HTreeCompact(g)
		if err != nil {
			t.Fatalf("%s: HTreeCompact: %v", g.Name, err)
		}
		if !compact.Compact() || full.Compact() {
			t.Fatalf("%s: Compact flags wrong: full=%v compact=%v", g.Name, full.Compact(), compact.Compact())
		}
		if compact.Name != full.Name {
			t.Fatalf("%s: names differ: %q vs %q", g.Name, compact.Name, full.Name)
		}
		if compact.NumNodes() != full.NumNodes() || compact.Root() != full.Root() {
			t.Fatalf("%s: shape differs: %d/%d nodes, roots %d/%d",
				g.Name, compact.NumNodes(), full.NumNodes(), compact.Root(), full.Root())
		}
		for v := 0; v < full.NumNodes(); v++ {
			id := NodeID(v)
			if compact.Node(id) != full.Node(id) {
				t.Fatalf("%s: node %d differs: %+v vs %+v", g.Name, v, compact.Node(id), full.Node(id))
			}
			if compact.Parent(id) != full.Parent(id) {
				t.Fatalf("%s: parent of %d differs", g.Name, v)
			}
			if compact.EdgeLen(id) != full.EdgeLen(id) {
				t.Fatalf("%s: EdgeLen(%d) = %v vs %v", g.Name, v, compact.EdgeLen(id), full.EdgeLen(id))
			}
			if compact.RootDist(id) != full.RootDist(id) {
				t.Fatalf("%s: RootDist(%d) = %v vs %v (must be bit-identical)",
					g.Name, v, compact.RootDist(id), full.RootDist(id))
			}
		}
		checkDistanceQueries(t, g, compact, full)
	}
}

func checkDistanceQueries(t *testing.T, g *comm.Graph, compact, full *Tree) {
	t.Helper()
	for _, p := range g.CommunicatingPairs() {
		a, _ := full.CellNode(p[0])
		b, _ := full.CellNode(p[1])
		if got, want := compact.LCA(a, b), full.LCA(a, b); got != want {
			t.Fatalf("%s: LCA(%d,%d) = %d, want %d", g.Name, a, b, got, want)
		}
		if got, want := compact.LCABinaryLifting(a, b), full.LCABinaryLifting(a, b); got != want {
			t.Fatalf("%s: LCABinaryLifting(%d,%d) = %d, want %d", g.Name, a, b, got, want)
		}
		if got, want := compact.PathLen(a, b), full.PathLen(a, b); got != want {
			t.Fatalf("%s: PathLen(%d,%d) = %v, want %v", g.Name, a, b, got, want)
		}
		if got, want := compact.DiffDist(a, b), full.DiffDist(a, b); got != want {
			t.Fatalf("%s: DiffDist(%d,%d) = %v, want %v", g.Name, a, b, got, want)
		}
	}
}

// TestHTreeCompactEqualize checks Equalize works on compact trees (it
// drives the service's equalized streamed path) and stays bit-identical
// to the full tree's result.
func TestHTreeCompactEqualize(t *testing.T) {
	for _, g := range compactTestGraphs(t) {
		full, err := HTree(g)
		if err != nil {
			t.Fatal(err)
		}
		compact, err := HTreeCompact(g)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := compact.Equalize(), full.Equalize(); got != want {
			t.Fatalf("%s: Equalize added %v, want %v", g.Name, got, want)
		}
		for v := 0; v < full.NumNodes(); v++ {
			id := NodeID(v)
			if compact.RootDist(id) != full.RootDist(id) {
				t.Fatalf("%s: post-Equalize RootDist(%d) = %v vs %v", g.Name, v, compact.RootDist(id), full.RootDist(id))
			}
		}
		checkDistanceQueries(t, g, compact, full)
	}
}

// TestCompactTreeGuards checks the compact tree's degraded surface: no
// wires or child lists, Buffered refuses, Validate passes.
func TestCompactTreeGuards(t *testing.T) {
	g, err := comm.Mesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := HTreeCompact(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Validate(); err != nil {
		t.Fatalf("Validate on compact tree: %v", err)
	}
	for v := 0; v < ct.NumNodes(); v++ {
		if ct.Wire(NodeID(v)) != nil || ct.Children(NodeID(v)) != nil {
			t.Fatalf("compact tree retains wire/children at node %d", v)
		}
	}
	if _, err := Buffered(ct, 0.5); err == nil {
		t.Fatal("Buffered accepted a compact tree")
	}
	// TotalWireLength still works from retained edge lengths.
	ft, err := HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ct.TotalWireLength(), ft.TotalWireLength(); got != want {
		t.Fatalf("TotalWireLength = %v, want %v", got, want)
	}
	if got, want := ct.MaxRootDist(), ft.MaxRootDist(); got != want {
		t.Fatalf("MaxRootDist = %v, want %v", got, want)
	}
}

// splitCellsRef is the pre-quickselect reference implementation of
// splitCells (full copy + sort), kept verbatim for the differential test
// below: selection must produce the same halves as sorting did.
func splitCellsRef(cells []comm.Cell) (lo, hi []comm.Cell) {
	r := geom.EmptyRect()
	for _, c := range cells {
		r = r.Union(geom.Rect{Min: c.Pos, Max: c.Pos})
	}
	byX := r.Width() >= r.Height()
	sorted := append([]comm.Cell(nil), cells...)
	sort.Slice(sorted, func(i, j int) bool {
		if byX {
			if sorted[i].Pos.X != sorted[j].Pos.X {
				return sorted[i].Pos.X < sorted[j].Pos.X
			}
			return sorted[i].Pos.Y < sorted[j].Pos.Y
		}
		if sorted[i].Pos.Y != sorted[j].Pos.Y {
			return sorted[i].Pos.Y < sorted[j].Pos.Y
		}
		return sorted[i].Pos.X < sorted[j].Pos.X
	})
	m := len(sorted) / 2
	return sorted[:m], sorted[m:]
}

// sameCellSet reports whether got and want hold the same (position,
// ID) cells.
func sameCellSet(got []hcell, want []comm.Cell) bool {
	if len(got) != len(want) {
		return false
	}
	ids := make(map[geom.Point]comm.CellID, len(want))
	for _, c := range want {
		ids[c.Pos] = c.ID
	}
	for _, c := range got {
		if id, ok := ids[c.pos()]; !ok || id != c.ID {
			return false
		}
	}
	return true
}

// TestSplitCellsMatchesSortReference checks the quickselect split
// produces the same half-sets as the old full-sort implementation, on
// grid layouts, columns with shared coordinates, and random point sets.
// Set equality is the exact property H-tree construction depends on: the
// halves are only ever consumed as sets (bounding boxes, further splits).
func TestSplitCellsMatchesSortReference(t *testing.T) {
	rng := stats.NewRNG(7)
	var inputs [][]comm.Cell
	// Grid layouts of assorted shapes, including degenerate 1×n strips.
	for _, dims := range [][2]int{{1, 2}, {2, 2}, {1, 9}, {3, 4}, {7, 7}, {16, 3}, {5, 32}} {
		var cells []comm.Cell
		id := comm.CellID(0)
		for r := 0; r < dims[0]; r++ {
			for c := 0; c < dims[1]; c++ {
				cells = append(cells, comm.Cell{ID: id, Pos: geom.Pt(float64(c), float64(r))})
				id++
			}
		}
		inputs = append(inputs, cells)
	}
	// Random distinct points (grid-snapped so ties in one axis are common).
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(200)
		seen := map[geom.Point]bool{}
		var cells []comm.Cell
		for len(cells) < n {
			p := geom.Pt(float64(rng.Intn(20)), float64(rng.Intn(20)))
			if seen[p] {
				continue
			}
			seen[p] = true
			cells = append(cells, comm.Cell{ID: comm.CellID(len(cells)), Pos: p})
		}
		inputs = append(inputs, cells)
	}
	for i, cells := range inputs {
		wantLo, wantHi := splitCellsRef(cells)
		work := flatCells(cells)
		gotLo, gotHi := splitCells(work, bbox(work))
		if !sameCellSet(gotLo, wantLo) || !sameCellSet(gotHi, wantHi) {
			t.Fatalf("input %d (n=%d): quickselect halves differ from sort reference", i, len(cells))
		}
	}
}

// TestSelectCellsBudgetFallback drives selectCells into its sort
// fallback with a pathological input and checks correctness holds.
func TestSelectCellsBudgetFallback(t *testing.T) {
	// Many collinear points: every pivot partition is maximally lopsided
	// along one axis order only after ties, stressing the budget path.
	var cells []comm.Cell
	n := 1 << 12
	for i := 0; i < n; i++ {
		cells = append(cells, comm.Cell{ID: comm.CellID(i), Pos: geom.Pt(float64(i%3), float64(i))})
	}
	want, _ := splitCellsRef(cells)
	work := flatCells(cells)
	got, _ := splitCells(work, bbox(work))
	if !sameCellSet(got, want) {
		t.Fatal("fallback path produced wrong halves")
	}
	if math.Abs(float64(len(got)-n/2)) > 0 {
		t.Fatalf("lo half has %d cells, want %d", len(got), n/2)
	}
}
