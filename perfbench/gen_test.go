package main

import (
	"encoding/json"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/service"
)

var servingWorkloads = []string{"analyze-cold", "analyze-warm", "serve-mix"}

func sequence(t *testing.T, workload string, seed int64, n int) []Op {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.op(i)
	}
	return ops
}

// opMesh reads back the mesh an op names.
func opMesh(t *testing.T, op Op) mesh {
	t.Helper()
	if op.Method == "GET" {
		u, err := url.Parse(op.Path)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := strconv.Atoi(u.Query().Get("rows"))
		c, _ := strconv.Atoi(u.Query().Get("cols"))
		return mesh{r, c}
	}
	var req struct{ service.GraphInput }
	if err := json.Unmarshal(op.Body, &req); err != nil || req.Topology == nil {
		t.Fatalf("op body %s: %v", op.Body, err)
	}
	return mesh{req.Topology.Rows, req.Topology.Cols}
}

func TestSameSeedGivesIdenticalBytes(t *testing.T) {
	for _, w := range servingWorkloads {
		a := sequence(t, w, 7, 400)
		b := sequence(t, w, 7, 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generators with seed 7 disagree", w)
		}
		// op(i) depends on i alone, not on the ops drawn before it.
		g, _ := newGenerator(w, 7)
		for _, i := range []int{399, 3, 250, 0} {
			if !reflect.DeepEqual(g.op(i), a[i]) {
				t.Errorf("%s: op %d drawn out of order differs", w, i)
			}
		}
	}
}

// shape is what a seed must not change: size ranges, the endpoint mix of
// distinct requests and the share of repeats.
type shape struct {
	endpoints map[string]int
	repeats   int
	lo, hi    int
}

func shapeOf(t *testing.T, ops []Op) shape {
	s := shape{endpoints: map[string]int{}, lo: 1 << 30}
	for _, op := range ops {
		if op.Repeats >= 0 {
			s.repeats++
		} else {
			s.endpoints[op.Endpoint]++
		}
		m := opMesh(t, op)
		s.lo = min(s.lo, m.rows, m.cols)
		s.hi = max(s.hi, m.rows, m.cols)
	}
	return s
}

func TestSeedChangesRecipesNotShape(t *testing.T) {
	ranges := map[string][2]int{
		"analyze-cold": {coldMin, coldMax},
		"analyze-warm": {warmMin, warmMax},
		"serve-mix":    {mixMin, mixMax},
	}
	for _, w := range servingWorkloads {
		a, b := sequence(t, w, 1, 400), sequence(t, w, 2, 400)
		if reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 give the same sequence", w)
		}
		sa, sb := shapeOf(t, a), shapeOf(t, b)
		if !reflect.DeepEqual(sa.endpoints, sb.endpoints) || sa.repeats != sb.repeats {
			t.Errorf("%s: seeds change the mix: %+v vs %+v", w, sa, sb)
		}
		for _, s := range []shape{sa, sb} {
			if r := ranges[w]; s.lo < r[0] || s.hi > r[1] {
				t.Errorf("%s: sizes [%d, %d] leave [%d, %d]", w, s.lo, s.hi, r[0], r[1])
			}
		}
		if w == "serve-mix" && sa.repeats != len(a)/mixRepeatEvery {
			t.Errorf("serve-mix: %d repeats in %d ops, want one fifth", sa.repeats, len(a))
		}
		if w != "serve-mix" && sa.repeats != 0 {
			t.Errorf("%s: %d repeats, want none", w, sa.repeats)
		}
	}
}

// A seed never changes the size mix: every full round of a stratified
// order holds one mesh of each size block.
func TestStratifiedPrefixesShareSizes(t *testing.T) {
	area := func(w string, seed int64, n int) []int {
		var out []int
		for _, op := range sequence(t, w, seed, n) {
			m := opMesh(t, op)
			out = append(out, m.rows*m.cols)
		}
		sort.Ints(out)
		return out
	}
	side := coldMax - coldMin + 1
	a, b := area("analyze-cold", 1, 4*side), area("analyze-cold", 2, 4*side)
	// Sorted areas agree block by block: the i-th smallest of each run
	// comes from the same size block.
	g, _ := newGenerator("analyze-cold", 1)
	sizes := make([]int, len(g.space))
	for i, m := range g.space {
		sizes[i] = m.rows * m.cols
	}
	sort.Ints(sizes)
	for i := range a {
		blk := i / 4 // each block contributes 4 meshes
		lo, hi := sizes[blk*side], sizes[blk*side+side-1]
		if a[i] < lo || a[i] > hi || b[i] < lo || b[i] > hi {
			t.Fatalf("sorted area %d: %d and %d, want both in block [%d, %d]", i, a[i], b[i], lo, hi)
		}
	}
}

// Every computing request of analyze-cold, and of each serve-mix
// endpoint, names a mesh not seen before in the run; every serve-mix
// repeat copies an earlier request exactly.
func TestRecipesAreFreshAndRepeatsExact(t *testing.T) {
	for _, w := range []string{"analyze-cold", "serve-mix"} {
		g, _ := newGenerator(w, 3)
		ops := sequence(t, w, 3, g.capacity())
		seen := map[string]map[mesh]bool{}
		for i, op := range ops {
			if op.Repeats >= 0 {
				orig := ops[op.Repeats]
				orig.Repeats = op.Repeats
				if op.Repeats >= i || !reflect.DeepEqual(op, orig) || ops[op.Repeats].Repeats >= 0 {
					t.Fatalf("%s: op %d is not an exact repeat of distinct op %d", w, i, op.Repeats)
				}
				continue
			}
			if seen[op.Endpoint] == nil {
				seen[op.Endpoint] = map[mesh]bool{}
			}
			m := opMesh(t, op)
			if seen[op.Endpoint][m] {
				t.Fatalf("%s: op %d reuses %s mesh %v", w, i, op.Endpoint, m)
			}
			seen[op.Endpoint][m] = true
		}
	}
}
