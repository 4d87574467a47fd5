package clocktree_test

import (
	"sync"
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/skew"
)

// TestLCATablesBuiltOnFirstUse checks the cold analyze path builds no
// LCA table — an H-tree plus the skew kernel over it resolve every pair
// with PathLens — and that each table appears on its first query.
func TestLCATablesBuiltOnFirstUse(t *testing.T) {
	g, err := comm.Mesh(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := skew.NewKernel(g, tree); err != nil {
		t.Fatal(err)
	}
	if lifting, euler := clocktree.LCATablesBuilt(tree); lifting || euler {
		t.Fatalf("after HTree+NewKernel: lifting table built=%v, Euler table built=%v; want neither", lifting, euler)
	}
	tree.LCA(1, 2)
	if lifting, euler := clocktree.LCATablesBuilt(tree); lifting || !euler {
		t.Fatalf("after LCA: lifting=%v euler=%v; want only the Euler table", lifting, euler)
	}
	tree.LCABinaryLifting(1, 2)
	if lifting, _ := clocktree.LCATablesBuilt(tree); !lifting {
		t.Fatal("LCABinaryLifting did not build its table")
	}
}

// TestLCAConcurrentFirstUse races several readers into the first LCA
// queries of a fresh tree; run under -race it checks the lazily built
// tables are published safely, and the answers must agree throughout.
func TestLCAConcurrentFirstUse(t *testing.T) {
	g, err := comm.Mesh(12, 9)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		t.Fatal(err)
	}
	n := tree.NumNodes()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := w; a < n; a += 4 {
				for b := 0; b < n; b += 3 {
					x, y := clocktree.NodeID(a), clocktree.NodeID(b)
					if e, l := tree.LCA(x, y), tree.LCABinaryLifting(x, y); e != l {
						t.Errorf("LCA(%d,%d): euler %d, lifting %d", a, b, e, l)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if lifting, euler := clocktree.LCATablesBuilt(tree); !lifting || !euler {
		t.Fatalf("after concurrent queries: lifting=%v euler=%v", lifting, euler)
	}
}
