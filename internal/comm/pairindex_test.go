package comm

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
)

// referencePairs enumerates g's communicating pairs the independent way —
// a map dedup over the raw edge list, then a sort into canonical order —
// so the PairIndex equivalence tests compare against a list the index
// had no hand in building.
func referencePairs(g *Graph) [][2]CellID {
	seen := make(map[[2]CellID]bool)
	for _, e := range g.Edges {
		if e.From == Host || e.To == Host || e.From == e.To {
			continue
		}
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		seen[[2]CellID{a, b}] = true
	}
	out := make([][2]CellID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// pairIndexGraphs is the constructor matrix shared by the PairIndex
// equivalence tests: every topology family, including ones with host
// edges, duplicate parallel channels, and wrap-around (b < a) edges.
func pairIndexGraphs(t *testing.T) []*Graph {
	t.Helper()
	var out []*Graph
	for _, build := range []func() (*Graph, error){
		func() (*Graph, error) { return Linear(1) },
		func() (*Graph, error) { return Linear(7) },
		func() (*Graph, error) { return Bidirectional(5) },
		func() (*Graph, error) { return LinearDual(4) },
		func() (*Graph, error) { return Ring(6) },
		func() (*Graph, error) { return Mesh(4, 5) },
		func() (*Graph, error) { return MeshWithBoundaryIO(3, 4) },
		func() (*Graph, error) { return Hex(3) },
		func() (*Graph, error) { return HexWithBandIO(3) },
		func() (*Graph, error) { return Torus(3, 4) },
		func() (*Graph, error) { return CompleteBinaryTree(4) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

func TestPairIndexMatchesCommunicatingPairs(t *testing.T) {
	for _, g := range pairIndexGraphs(t) {
		pairs := referencePairs(g)
		if got := g.CommunicatingPairs(); !slices.Equal(got, pairs) {
			t.Fatalf("%s: CommunicatingPairs = %v, want %v", g.Name, got, pairs)
		}
		ix := g.PairIndex()
		if got, want := ix.NumPairs(), int64(len(pairs)); got != want {
			t.Fatalf("%s: NumPairs = %d, want %d", g.Name, got, want)
		}
		if got, want := ix.NumCells(), g.NumCells(); got != want {
			t.Fatalf("%s: NumCells = %d, want %d", g.Name, got, want)
		}
		c := ix.Cursor(0)
		for i, want := range pairs {
			if got, wantIdx := c.Index(), int64(i); got != wantIdx {
				t.Fatalf("%s: cursor Index = %d before pair %d", g.Name, got, i)
			}
			a, b, ok := c.Next()
			if !ok {
				t.Fatalf("%s: cursor exhausted at pair %d of %d", g.Name, i, len(pairs))
			}
			if a != want[0] || b != want[1] {
				t.Fatalf("%s: pair %d = (%d,%d), want (%d,%d)", g.Name, i, a, b, want[0], want[1])
			}
			if pa, pb := ix.Pair(int64(i)); pa != want[0] || pb != want[1] {
				t.Fatalf("%s: Pair(%d) = (%d,%d), want (%d,%d)", g.Name, i, pa, pb, want[0], want[1])
			}
		}
		if _, _, ok := c.Next(); ok {
			t.Fatalf("%s: cursor yields pairs past NumPairs", g.Name)
		}
	}
}

// TestPairIndexShardedCursor walks the index in shards of several sizes,
// including ones that straddle row boundaries, and checks the
// concatenation reproduces the canonical order exactly.
func TestPairIndexShardedCursor(t *testing.T) {
	for _, g := range pairIndexGraphs(t) {
		pairs := referencePairs(g)
		ix := g.PairIndex()
		for _, shard := range []int64{1, 2, 3, 7, 13, ix.NumPairs() + 1} {
			if shard <= 0 {
				continue
			}
			var got [][2]CellID
			for lo := int64(0); lo < ix.NumPairs(); lo += shard {
				hi := lo + shard
				if hi > ix.NumPairs() {
					hi = ix.NumPairs()
				}
				c := ix.Cursor(lo)
				for c.Index() < hi {
					a, b, ok := c.Next()
					if !ok {
						t.Fatalf("%s shard=%d: cursor exhausted at %d before hi=%d", g.Name, shard, c.Index(), hi)
					}
					got = append(got, [2]CellID{a, b})
				}
			}
			if len(got) != len(pairs) {
				t.Fatalf("%s shard=%d: %d pairs, want %d", g.Name, shard, len(got), len(pairs))
			}
			for i := range got {
				if got[i] != pairs[i] {
					t.Fatalf("%s shard=%d: pair %d = %v, want %v", g.Name, shard, i, got[i], pairs[i])
				}
			}
		}
		// A cursor at the end yields nothing.
		c := ix.Cursor(ix.NumPairs())
		if _, _, ok := c.Next(); ok {
			t.Fatalf("%s: Cursor(NumPairs) yields a pair", g.Name)
		}
	}
}

func TestPairIndexEmptyAndUncached(t *testing.T) {
	g, err := Linear(1) // one cell: host edges only, zero pairs
	if err != nil {
		t.Fatal(err)
	}
	ix := g.PairIndex()
	if ix.NumPairs() != 0 {
		t.Fatalf("Linear(1) NumPairs = %d, want 0", ix.NumPairs())
	}
	c := ix.Cursor(0)
	if _, _, ok := c.Next(); ok {
		t.Fatal("empty index cursor yields a pair")
	}

	// Bare literal (nil memo) degrades to uncached recomputation.
	bare := &Graph{
		Cells: []Cell{{ID: 0, Pos: geom.Pt(0, 0)}, {ID: 1, Pos: geom.Pt(1, 0)}},
		Edges: []Edge{{From: 1, To: 0, Label: "x"}, {From: 0, To: 1, Label: "y"}},
	}
	ix1 := bare.PairIndex()
	ix2 := bare.PairIndex()
	if ix1 == ix2 {
		t.Fatal("nil-memo graph unexpectedly memoized its PairIndex")
	}
	if ix1.NumPairs() != 1 {
		t.Fatalf("bare graph NumPairs = %d, want 1", ix1.NumPairs())
	}
	if a, b := ix1.Pair(0); a != 0 || b != 1 {
		t.Fatalf("bare graph Pair(0) = (%d,%d), want (0,1)", a, b)
	}
}

func TestPairIndexMemoizedAndFrozen(t *testing.T) {
	g, err := Mesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.PairIndex() != g.PairIndex() {
		t.Fatal("PairIndex not memoized for constructor-built graph")
	}
	// Appending an edge after first use must panic on the next call.
	g.Edges = append(g.Edges, Edge{From: 0, To: 8, Label: "late"})
	defer func() {
		if recover() == nil {
			t.Fatal("PairIndex did not panic after edge-set mutation")
		}
	}()
	g.PairIndex()
}
