package clocktree

// Native fuzz targets for the tree builders: arbitrary byte strings
// decode into planar cell layouts (degenerate ones included — a single
// cell, collinear cells, coincident coordinates on one axis producing
// zero-length wire segments), and every layout the builders accept must
// yield a structurally valid tree whose distance queries satisfy the
// metric identities the skew models rely on. Seed corpus lives in
// testdata/fuzz/; CI runs each target briefly as a smoke test.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/geom"
)

// layoutFromBytes decodes data as consecutive (x, y) int8 pairs into a
// linear-array graph at those positions (at most 32 cells, so fuzzing
// stays fast). It returns nil for layouts comm rejects — an empty byte
// string or duplicate cell positions.
func layoutFromBytes(data []byte) *comm.Graph {
	n := len(data) / 2
	if n == 0 {
		return nil
	}
	if n > 32 {
		n = 32
	}
	g := &comm.Graph{Kind: comm.KindLinear, Name: fmt.Sprintf("fuzz-%d", n)}
	for i := 0; i < n; i++ {
		g.Cells = append(g.Cells, comm.Cell{
			ID:  comm.CellID(i),
			Pos: geom.Pt(float64(int8(data[2*i])), float64(int8(data[2*i+1]))),
		})
	}
	g.Edges = append(g.Edges, comm.Edge{From: comm.Host, To: 0, Label: "x"})
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, comm.Edge{From: comm.CellID(i), To: comm.CellID(i + 1), Label: "x"})
	}
	g.Edges = append(g.Edges, comm.Edge{From: comm.CellID(n - 1), To: comm.Host, Label: "x"})
	if g.Validate() != nil {
		return nil
	}
	return g
}

// checkTreeMetrics asserts the structural and metric invariants every
// built tree must satisfy: it validates, it clocks every cell, the root
// is at distance zero, and for every cell pair the tree-path length is
// symmetric, at least the difference distance (A9 vs A10 consistency),
// and equals the two root-path segments beyond the pair's LCA.
func checkTreeMetrics(t *testing.T, g *comm.Graph, tree *Tree) {
	t.Helper()
	if err := tree.Validate(); err != nil {
		t.Fatalf("built tree fails validation: %v", err)
	}
	if !tree.Covers(g) {
		t.Fatalf("tree %q does not cover its own graph", tree.Name)
	}
	if d := tree.RootDist(tree.Root()); d != 0 {
		t.Fatalf("root at distance %g from itself", d)
	}
	for a := comm.CellID(0); int(a) < g.NumCells(); a++ {
		if d := tree.CellRootDist(a); d < 0 || math.IsNaN(d) {
			t.Fatalf("cell %d has root distance %g", a, d)
		}
		for b := a + 1; int(b) < g.NumCells(); b++ {
			s, sRev := tree.CellPathLen(a, b), tree.CellPathLen(b, a)
			if s != sRev {
				t.Fatalf("path length asymmetric: %g vs %g", s, sRev)
			}
			d := tree.CellDiffDist(a, b)
			if d < 0 || s < 0 || math.IsNaN(s) || math.IsNaN(d) {
				t.Fatalf("negative or NaN distances: d=%g s=%g", d, s)
			}
			if s < d-1e-9 {
				t.Fatalf("tree path %g below difference distance %g (cells %d,%d)", s, d, a, b)
			}
		}
	}
}

func addLayoutSeeds(f *testing.F) {
	f.Add([]byte{0, 0})                         // single cell
	f.Add([]byte{0, 0, 10, 0, 20, 0, 30, 0})    // collinear cells (one row)
	f.Add([]byte{0, 0, 0, 5, 0, 10})            // shared x: zero-length horizontal wire segments
	f.Add([]byte{0, 0, 1, 1, 2, 0, 3, 1, 4, 0}) // zig-zag
	f.Add([]byte{255, 255, 0, 0, 127, 127})     // extreme int8 corners
}

// FuzzSpine checks that the chain builder accepts any distinct-position
// layout and that adjacent cells end up exactly one wire apart: on a
// spine the tree path between successive cells is the rectilinear wire
// between them, the property Theorem 3 depends on.
func FuzzSpine(f *testing.F) {
	addLayoutSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := layoutFromBytes(data)
		if g == nil {
			t.Skip("layout rejected by comm")
		}
		tree, err := Spine(g)
		if err != nil {
			t.Fatalf("Spine rejected a valid layout: %v", err)
		}
		checkTreeMetrics(t, g, tree)
		for i := 0; i+1 < g.NumCells(); i++ {
			a, b := g.Cells[i], g.Cells[i+1]
			want := geom.Rectilinear(a.Pos, b.Pos).Length()
			if got := tree.CellPathLen(a.ID, b.ID); math.Abs(got-want) > 1e-9 {
				t.Fatalf("spine distance %d↔%d is %g, want wire length %g", a.ID, b.ID, got, want)
			}
		}
	})
}

// FuzzHTree checks the recursive builder on arbitrary layouts — node for
// node against the pre-flat reference construction, at tolerance 0 —
// and then the Theorem 2 mechanism on each: every cell node of an H-tree
// is a leaf, so Equalize must drive every cell's root distance to the
// common maximum, leaving a tree with zero difference skew.
func FuzzHTree(f *testing.F) {
	addLayoutSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := layoutFromBytes(data)
		if g == nil {
			t.Skip("layout rejected by comm")
		}
		tree, err := HTree(g)
		if err != nil {
			t.Fatalf("HTree rejected a valid layout: %v", err)
		}
		diffReference(t, tree, referenceHTree(g))
		checkTreeMetrics(t, g, tree)
		added := tree.Equalize()
		if added < 0 || math.IsNaN(added) {
			t.Fatalf("Equalize added %g", added)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("equalized tree fails validation: %v", err)
		}
		max := tree.MaxRootDist()
		for _, c := range g.Cells {
			if d := tree.CellRootDist(c.ID); math.Abs(d-max) > 1e-9 {
				t.Fatalf("cell %d not equalized: root distance %g, want %g", c.ID, d, max)
			}
		}
	})
}
