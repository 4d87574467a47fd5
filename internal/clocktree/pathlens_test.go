package clocktree

import (
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/stats"
)

// TestPathLensMatchesPathLen checks the offline all-pairs path lengths
// against both single-query LCAs, bit for bit, for every ordered node
// pair (self-pairs included) of every tree shape the package builds.
func TestPathLensMatchesPathLen(t *testing.T) {
	mesh := mustMesh(t, 5, 7)
	lin := mustLinear(t, 23)
	ring, err := comm.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := comm.CompleteBinaryTree(4)
	if err != nil {
		t.Fatal(err)
	}
	htree, err := HTree(mesh)
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() (*Tree, error){
		func() (*Tree, error) { return htree, nil },
		func() (*Tree, error) { return Spine(lin) },
		func() (*Tree, error) { return SpineWithHost(lin, lin.Cells[11].Pos) },
		func() (*Tree, error) { return Serpentine(mesh) },
		func() (*Tree, error) { return Ladder(ring) },
		func() (*Tree, error) { return AlongCommTree(bin) },
		func() (*Tree, error) { return RandomBinary(mesh, stats.NewRNG(11)) },
		func() (*Tree, error) { return Buffered(htree, 1.5) },
		func() (*Tree, error) { return HTreeCompact(mesh) },
	} {
		tr, err := build()
		if err != nil {
			t.Fatal(err)
		}
		n := tr.NumNodes()
		var a, b []int32
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				a, b = append(a, int32(x)), append(b, int32(y))
			}
		}
		s := make([]float64, len(a))
		tr.PathLens(a, b, s)
		for i := range s {
			x, y := NodeID(a[i]), NodeID(b[i])
			if want := tr.PathLen(x, y); math.Float64bits(s[i]) != math.Float64bits(want) {
				t.Fatalf("%s: PathLens(%d,%d) = %v, PathLen = %v", tr.Name, x, y, s[i], want)
			}
			l := tr.LCABinaryLifting(x, y)
			want := tr.RootDist(x) + tr.RootDist(y) - 2*tr.RootDist(l)
			if math.Float64bits(s[i]) != math.Float64bits(want) {
				t.Fatalf("%s: PathLens(%d,%d) = %v, via binary lifting %v", tr.Name, x, y, s[i], want)
			}
		}
	}
}

func TestPathLensRejectsLengthMismatch(t *testing.T) {
	tr, err := Spine(mustLinear(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched PathLens lengths accepted")
		}
	}()
	tr.PathLens([]int32{0, 1}, []int32{1}, make([]float64, 2))
}
