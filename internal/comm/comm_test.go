package comm

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestLinear(t *testing.T) {
	g, err := Linear(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 5 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	pairs := g.CommunicatingPairs()
	if len(pairs) != 4 {
		t.Errorf("pairs = %v", pairs)
	}
	if len(g.HostEdges()) != 2 {
		t.Errorf("host edges = %v", g.HostEdges())
	}
	if g.MaxEdgeLength() != 1 {
		t.Errorf("MaxEdgeLength = %g", g.MaxEdgeLength())
	}
	if _, err := Linear(0); err == nil {
		t.Error("Linear(0) accepted")
	}
}

func TestBidirectional(t *testing.T) {
	g, err := Bidirectional(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Pairs are the same 3 neighbor pairs; directed edges double.
	if len(g.CommunicatingPairs()) != 3 {
		t.Errorf("pairs = %v", g.CommunicatingPairs())
	}
	if len(g.HostEdges()) != 4 {
		t.Errorf("host edges = %d, want 4", len(g.HostEdges()))
	}
}

func TestRingNeighborDistanceBounded(t *testing.T) {
	for _, n := range []int{3, 4, 7, 12, 40, 101} {
		g, err := Ring(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(g.CommunicatingPairs()) != n {
			t.Errorf("n=%d: pairs = %d", n, len(g.CommunicatingPairs()))
		}
		if d := g.MaxEdgeLength(); d > 3 {
			t.Errorf("n=%d: ring neighbor distance %g not bounded", n, d)
		}
	}
	if _, err := Ring(2); err == nil {
		t.Error("Ring(2) accepted")
	}
}

func TestMesh(t *testing.T) {
	g, err := Mesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 12 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// 17 undirected neighbor pairs.
	if got := len(g.CommunicatingPairs()); got != 17 {
		t.Errorf("pairs = %d, want 17", got)
	}
	c, ok := g.CellAt(2, 3)
	if !ok || c.Pos.X != 3 || c.Pos.Y != 2 {
		t.Errorf("CellAt(2,3) = %v %v", c, ok)
	}
	if _, ok := g.CellAt(5, 5); ok {
		t.Error("CellAt out of range returned ok")
	}
	if g.MaxEdgeLength() != 1 {
		t.Errorf("MaxEdgeLength = %g", g.MaxEdgeLength())
	}
	if _, err := Mesh(0, 3); err == nil {
		t.Error("Mesh(0,3) accepted")
	}
}

func TestMeshUndirectedMatchesGraphPackage(t *testing.T) {
	g, _ := Mesh(4, 4)
	u := g.Undirected()
	if u.N() != 16 || u.M() != 24 {
		t.Errorf("undirected N=%d M=%d, want 16, 24", u.N(), u.M())
	}
	if !u.Connected() {
		t.Error("undirected mesh disconnected")
	}
}

func TestHex(t *testing.T) {
	g, err := Hex(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 9 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// Interior cell (1,1) should have 6 neighbors.
	center, _ := g.CellAt(1, 1)
	deg := 0
	for _, p := range g.CommunicatingPairs() {
		if p[0] == center.ID || p[1] == center.ID {
			deg++
		}
	}
	if deg != 6 {
		t.Errorf("hex center degree = %d, want 6", deg)
	}
	if d := g.MaxEdgeLength(); d > 1.01 {
		t.Errorf("hex neighbor distance %g > 1", d)
	}
	if _, err := Hex(0); err == nil {
		t.Error("Hex(0) accepted")
	}
}

func TestTorusWraparoundLength(t *testing.T) {
	g, err := Torus(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Wraparound edges make MaxEdgeLength ≈ cols−1.
	if d := g.MaxEdgeLength(); math.Abs(d-5) > 1e-9 {
		t.Errorf("torus MaxEdgeLength = %g, want 5", d)
	}
	if _, err := Torus(2, 5); err == nil {
		t.Error("Torus(2,5) accepted")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g, err := CompleteBinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 15 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	if got := len(g.CommunicatingPairs()); got != 14 {
		t.Errorf("pairs = %d, want 14", got)
	}
	if _, err := CompleteBinaryTree(0); err == nil {
		t.Error("levels=0 accepted")
	}
	if _, err := CompleteBinaryTree(30); err == nil {
		t.Error("levels=30 accepted")
	}
}

func TestHTreeLayoutAreaLinear(t *testing.T) {
	// H-tree area must be O(N): area / N bounded as N grows.
	var prevRatio float64
	for _, levels := range []int{4, 6, 8, 10} {
		g, err := CompleteBinaryTree(levels)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(g.NumCells())
		ratio := g.Bounds().Area() / n
		if prevRatio > 0 && ratio > prevRatio*2 {
			t.Errorf("levels=%d: area/N ratio %g grows too fast (prev %g)", levels, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestHTreeEdgeLengthGrowsAsSqrtN(t *testing.T) {
	// The longest tree edge (at the root) is Θ(√N) — the Paterson–Ruzzo–
	// Snyder phenomenon motivating Section VIII.
	g8, _ := CompleteBinaryTree(8)
	g12, _ := CompleteBinaryTree(12)
	ratio := g12.MaxEdgeLength() / g8.MaxEdgeLength()
	// N grows 16×, √N grows 4×.
	if ratio < 3 || ratio > 5 {
		t.Errorf("root edge growth ratio = %g, want ≈4", ratio)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _ := Linear(3)
	g.Cells[1].ID = 7
	if err := g.Validate(); err == nil {
		t.Error("bad cell ID not caught")
	}
	g, _ = Linear(3)
	g.Cells[2].Pos = g.Cells[0].Pos
	if err := g.Validate(); err == nil {
		t.Error("duplicate position not caught")
	}
	g, _ = Linear(3)
	g.Edges = append(g.Edges, Edge{From: 0, To: 99})
	if err := g.Validate(); err == nil {
		t.Error("dangling edge not caught")
	}
	g, _ = Linear(3)
	g.Edges = append(g.Edges, Edge{From: 1, To: 1})
	if err := g.Validate(); err == nil {
		t.Error("self-loop not caught")
	}
}

func TestCellPanicsOnHost(t *testing.T) {
	g, _ := Linear(2)
	defer func() {
		if recover() == nil {
			t.Error("Cell(Host) should panic")
		}
	}()
	g.Cell(Host)
}

func TestCommunicatingPairsSortedAndUniqueProperty(t *testing.T) {
	f := func(r, c uint8) bool {
		rows, cols := int(r%5)+1, int(c%5)+1
		g, err := Mesh(rows, cols)
		if err != nil {
			return false
		}
		pairs := g.CommunicatingPairs()
		if !slices.Equal(pairs, referencePairs(g)) {
			return false
		}
		for i := 1; i < len(pairs); i++ {
			if pairs[i][0] < pairs[i-1][0] ||
				(pairs[i][0] == pairs[i-1][0] && pairs[i][1] <= pairs[i-1][1]) {
				return false
			}
		}
		for _, p := range pairs {
			if p[0] >= p[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundsCoverAllCells(t *testing.T) {
	for _, build := range []func() (*Graph, error){
		func() (*Graph, error) { return Linear(7) },
		func() (*Graph, error) { return Mesh(3, 5) },
		func() (*Graph, error) { return Hex(4) },
		func() (*Graph, error) { return Ring(10) },
		func() (*Graph, error) { return CompleteBinaryTree(5) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		b := g.Bounds()
		for _, c := range g.Cells {
			if !b.Contains(c.Pos) {
				t.Errorf("%s: cell %d at %v outside bounds %v", g.Name, c.ID, c.Pos, b)
			}
		}
		if b.Area() < float64(g.NumCells()) {
			t.Errorf("%s: bounds area %g smaller than cell count %d (A2 violated)",
				g.Name, b.Area(), g.NumCells())
		}
	}
}

func TestLinearDual(t *testing.T) {
	g, err := LinearDual(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 5 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	// Two parallel chains: 2·4 internal edges + 4 host edges.
	if len(g.Edges) != 12 {
		t.Errorf("edges = %d, want 12", len(g.Edges))
	}
	if len(g.HostEdges()) != 4 {
		t.Errorf("host edges = %d, want 4", len(g.HostEdges()))
	}
	// Still 4 communicating pairs (parallel channels share pairs).
	if got := len(g.CommunicatingPairs()); got != 4 {
		t.Errorf("pairs = %d, want 4", got)
	}
	if _, err := LinearDual(0); err == nil {
		t.Error("LinearDual(0) accepted")
	}
}

func TestFoldLinearLayout(t *testing.T) {
	g, _ := Linear(10)
	folded, err := FoldLinear(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := folded.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both ends meet: cells 0 and 9 are one pitch apart.
	if d := folded.Cells[0].Pos.Dist(folded.Cells[9].Pos); d > 1.01 {
		t.Errorf("folded ends %g apart, want ≤ 1", d)
	}
	// Successive cells stay close (the fold itself is the worst hop).
	if d := folded.MaxEdgeLength(); d > 1.5 {
		t.Errorf("folded neighbor distance %g", d)
	}
	// Original untouched.
	if g.Cells[9].Pos.X != 9 {
		t.Error("FoldLinear mutated its input")
	}
	// Grid index rebuilt.
	if c, ok := folded.CellAt(1, 0); !ok || c.ID != 9 {
		t.Errorf("CellAt(1,0) = %v %v, want cell 9", c, ok)
	}
	mesh, _ := Mesh(2, 2)
	if _, err := FoldLinear(mesh); err == nil {
		t.Error("FoldLinear accepted a mesh")
	}
}

func TestCombLinearLayout(t *testing.T) {
	g, _ := Linear(12)
	comb, err := CombLinear(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := comb.Validate(); err != nil {
		t.Fatal(err)
	}
	// Four teeth of height 3, two pitches apart: successive cells ≤ 2.
	if d := comb.MaxEdgeLength(); d > 2.01 {
		t.Errorf("comb neighbor distance %g, want ≤ 2", d)
	}
	b := comb.Bounds()
	if b.Width() < b.Height() {
		t.Errorf("comb should be wider than tall: %gx%g", b.Width(), b.Height())
	}
	if _, err := CombLinear(g, 0); err == nil {
		t.Error("tooth height 0 accepted")
	}
	mesh, _ := Mesh(2, 2)
	if _, err := CombLinear(mesh, 2); err == nil {
		t.Error("CombLinear accepted a mesh")
	}
}

func TestCommunicatingPairsMemoizedConcurrent(t *testing.T) {
	g, err := Mesh(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := referencePairs(g)
	done := make(chan [][2]CellID, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- g.CommunicatingPairs() }()
	}
	for i := 0; i < 8; i++ {
		if got := <-done; !slices.Equal(got, want) {
			t.Fatalf("concurrent CommunicatingPairs = %v, want %v", got, want)
		}
	}
}

func TestCommunicatingPairsMutationPanics(t *testing.T) {
	g, err := Linear(4)
	if err != nil {
		t.Fatal(err)
	}
	g.CommunicatingPairs()
	g.Edges = append(g.Edges, Edge{From: 0, To: 3, Label: "late"})
	defer func() {
		if recover() == nil {
			t.Error("mutation after first CommunicatingPairs call did not panic")
		}
	}()
	g.CommunicatingPairs()
}

// Builders mutate the edge set after construction (MeshWithBoundaryIO
// rewrites Mesh's host edges); that must stay legal as long as it
// happens before the first CommunicatingPairs call.
func TestMutationBeforeFirstPairsCallAllowed(t *testing.T) {
	g, err := MeshWithBoundaryIO(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.CommunicatingPairs()) == 0 {
		t.Fatal("no pairs")
	}
}

// A Graph built as a bare literal (no constructor, nil memo) must still
// answer pair queries, just without caching.
func TestCommunicatingPairsLiteralGraph(t *testing.T) {
	g := &Graph{
		Name:  "literal",
		Cells: []Cell{{ID: 0}, {ID: 1}},
		Edges: []Edge{{From: 0, To: 1}},
	}
	// Cells need distinct positions only for Validate; pairs don't care.
	if got := g.CommunicatingPairs(); len(got) != 1 || got[0] != [2]CellID{0, 1} {
		t.Fatalf("literal graph pairs = %v", got)
	}
	g.Edges = append(g.Edges, Edge{From: 1, To: 0})
	if got := g.CommunicatingPairs(); len(got) != 1 {
		t.Fatalf("uncached path must recompute: %v", got)
	}
}
