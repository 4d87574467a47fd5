package skew

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/stats"
)

// Kernel is an immutable precomputation over one (graph, tree) pair that
// makes every skew query array indexing. Built once — every pair's
// tree-path length comes from one offline-LCA pass over the tree
// (clocktree.Tree.PathLens), so no LCA table is built — it caches:
//
//   - the communicating pairs, in the graph's PairIndex order, resolved
//     to flat tree-node indices,
//   - each pair's difference distance d and tree-path length s
//     (Section III's two geometries, computed once instead of per query),
//   - a parent-before-child edge schedule (the tree's DFS preorder)
//     that replaces the recursive closure walk of the Monte-Carlo trial
//     with two flat loops over preallocated arrays.
//
// A Kernel is safe for concurrent use: Analyze and GuaranteedMinSkew
// only read, and Monte-Carlo scratch state lives in a sync.Pool of
// per-worker arenas, so steady-state trials allocate nothing. The
// serving stack caches Kernels by the request's recipe (graph input
// plus tree recipe) and reuses them across requests with different
// models, trials, and seeds.
type Kernel struct {
	graph *comm.Graph
	tree  *clocktree.Tree

	ix           *comm.PairIndex // the graph's index; pair i's cells are ix.Pair(i)
	pairA, pairB []int32         // tree-node index of each pair's endpoints
	d, s         []float64       // per-pair difference / tree-path distances
	maxD, maxS   float64

	// Edge schedule in DFS preorder (root excluded): node order[i] has
	// parent parent[i] and electrical edge length length[i]. Preorder
	// guarantees a parent's arrival time is final before any child reads
	// it, and — critically for determinism — it draws per-edge random
	// delays in exactly the order the pre-kernel recursive walk did, so
	// Monte-Carlo results are bit-identical to the reference.
	order  []int32
	parent []int32
	length []float64
	root   int32

	arenas sync.Pool // *mcArena, reused across trials and chunks
}

// mcArena is one worker's Monte-Carlo scratch: per-edge unit delays and
// per-node arrival times.
type mcArena struct {
	units   []float64
	arrival []float64
}

// NewKernel validates that tree clocks every cell of g and precomputes
// the pair geometry and edge schedule. Construction is
// O(nodes + pairs); afterwards Analyze and each Monte-Carlo trial touch
// only flat arrays. Sizes are checked against DefaultLimits before
// anything is allocated: a tree or pair list that would overflow the
// kernel's int32 indices, or blow the default memory budget, yields a
// *SizeError instead of silent index truncation or an OOM kill.
func NewKernel(g *comm.Graph, tree *clocktree.Tree) (*Kernel, error) {
	return NewKernelWithLimits(g, tree, DefaultLimits)
}

// NewKernelWithLimits is NewKernel under caller-chosen size limits
// (zero fields default). The count limits clamp to math.MaxInt32 —
// int32 indexing is a representation ceiling no limit can raise.
func NewKernelWithLimits(g *comm.Graph, tree *clocktree.Tree, lim Limits) (*Kernel, error) {
	if !tree.Covers(g) {
		return nil, fmt.Errorf("skew: tree %q does not clock every cell of %q", tree.Name, g.Name)
	}
	// Size-check against the pair index before allocating any per-pair
	// array: an oversize graph must be rejected — and handed to the
	// streamed path — without ever paying the allocation the limit
	// exists to prevent.
	ix := g.PairIndex()
	if err := checkKernelSize(g.Name, tree.Name, tree.NumNodes(), int(ix.NumPairs()), lim); err != nil {
		return nil, err
	}
	pairs := ix.NumPairs()
	k := &Kernel{
		graph: g, tree: tree, ix: ix,
		pairA: make([]int32, pairs),
		pairB: make([]int32, pairs),
		d:     make([]float64, pairs),
		s:     make([]float64, pairs),
		root:  int32(tree.Root()),
	}
	c := ix.Cursor(0)
	for i := range k.pairA {
		a, b, _ := c.Next() // the cursor yields exactly len(pairA) pairs
		na, _ := tree.CellNode(a)
		nb, _ := tree.CellNode(b)
		k.pairA[i], k.pairB[i] = int32(na), int32(nb)
		k.d[i] = tree.DiffDist(na, nb)
		if k.d[i] > k.maxD {
			k.maxD = k.d[i]
		}
	}
	tree.PathLens(k.pairA, k.pairB, k.s)
	for _, s := range k.s {
		if s > k.maxS {
			k.maxS = s
		}
	}
	n := tree.NumNodes()
	k.order = make([]int32, 0, n-1)
	k.parent = make([]int32, 0, n-1)
	k.length = make([]float64, 0, n-1)
	// DFS preorder via explicit stack; children pushed in reverse so they
	// are visited (and their delays drawn) in natural order, matching the
	// pre-kernel recursive walk draw for draw.
	stack := []clocktree.NodeID{tree.Root()}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p := tree.Parent(v); p >= 0 {
			k.order = append(k.order, int32(v))
			k.parent = append(k.parent, int32(p))
			k.length = append(k.length, tree.EdgeLen(v))
		}
		kids := tree.Children(v)
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	k.arenas.New = func() any {
		return &mcArena{
			units:   make([]float64, len(k.order)),
			arrival: make([]float64, n),
		}
	}
	return k, nil
}

// Graph returns the communication graph the kernel was built over.
func (k *Kernel) Graph() *comm.Graph { return k.graph }

// Tree returns the clock tree the kernel was built over.
func (k *Kernel) Tree() *clocktree.Tree { return k.tree }

// Pairs returns the number of communicating pairs.
func (k *Kernel) Pairs() int { return len(k.pairA) }

// FootprintBytes returns the kernel's estimated resident size — the
// KernelBytes estimate for its node and pair counts.
func (k *Kernel) FootprintBytes() int64 {
	return KernelBytes(k.tree.NumNodes(), len(k.pairA))
}

// Analyze evaluates model over every communicating pair using the
// cached distances. It performs no tree or graph traversal.
func (k *Kernel) Analyze(model Model) Analysis {
	out := Analysis{
		Model: model.Name(), Tree: k.tree.Name,
		MaxD: k.maxD, MaxS: k.maxS, Pairs: len(k.pairA),
	}
	worst := -1
	for i := range k.d {
		if sk := model.Bound(k.d[i], k.s[i]); sk > out.MaxSkew {
			out.MaxSkew = sk
			worst = i
		}
	}
	if worst >= 0 {
		a, b := k.ix.Pair(int64(worst))
		out.WorstPair = PairSkew{A: a, B: b, D: k.d[worst], S: k.s[worst], Skew: out.MaxSkew}
	}
	return out
}

// GuaranteedMinSkew returns the model's largest per-pair lower bound
// from the cached path lengths, or 0 for models without one.
func (k *Kernel) GuaranteedMinSkew(model Model) float64 {
	lb, ok := model.(LowerBounder)
	if !ok {
		return 0
	}
	var worst float64
	for _, s := range k.s {
		if v := lb.LowerBound(s); v > worst {
			worst = v
		}
	}
	return worst
}

// Trial runs one Monte-Carlo trial — draw a random unit delay for every
// tree edge, accumulate arrival times down the schedule, and return the
// worst arrival difference over communicating pairs — using scratch from
// the kernel's arena pool. Steady state allocates nothing.
func (k *Kernel) trial(m Linear, r *stats.RNG, a *mcArena) float64 {
	r.UniformFill(a.units, m.M-m.Eps, m.M+m.Eps)
	a.arrival[k.root] = 0
	for i, v := range k.order {
		a.arrival[v] = a.arrival[k.parent[i]] + k.length[i]*a.units[i]
	}
	var worst float64
	for i := range k.pairA {
		if d := math.Abs(a.arrival[k.pairA[i]] - a.arrival[k.pairB[i]]); d > worst {
			worst = d
		}
	}
	return worst
}

// Trial is the exported form of one Monte-Carlo trial for benchmarks and
// differential tests: it draws from r and writes scratch into an arena
// borrowed from the pool. Results are identical to the corresponding
// trial of MonteCarlo when r is the same fork.
func (k *Kernel) Trial(m Linear, r *stats.RNG) float64 {
	a := k.arenas.Get().(*mcArena)
	w := k.trial(m, r, a)
	k.arenas.Put(a)
	return w
}

// MonteCarlo runs trials sequential Monte-Carlo trials, forking rng by
// trial index exactly as the reference implementation does, and returns
// the worst skew observed. See MonteCarlo (package function) for the
// physical interpretation.
func (k *Kernel) MonteCarlo(m Linear, trials int, rng *stats.RNG) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	a := k.arenas.Get().(*mcArena)
	defer k.arenas.Put(a)
	var worst float64
	for trial := 0; trial < trials; trial++ {
		if w := k.trial(m, rng.Fork(int64(trial)), a); w > worst {
			worst = w
		}
	}
	return worst, nil
}
