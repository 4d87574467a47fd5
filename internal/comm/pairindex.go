package comm

import (
	"fmt"
	"sort"

	"slices"
)

// PairIndex is a compressed-sparse-row view of a graph's communicating
// pairs: for each cell a, the ascending list of partners b > a such that
// {a, b} share at least one communication edge (host edges and self-loops
// excluded). Enumerating rows in order visits each unordered pair once,
// a-major and b-ascending — the canonical pair order every engine, shard
// and worst-pair tie-break is defined over. It is the graph's only pair
// enumeration: 4 bytes per pair plus 8 per cell, with no map-backed dedup
// transient. Cursor walks arbitrary contiguous ranges (the streamed path's
// shards) without holding any pair as a value.
type PairIndex struct {
	rowStart []int64 // per-cell offsets into adj; len NumCells+1
	adj      []int32 // partner b of each pair (a, b); b ascending within a row
}

// NumPairs returns the total number of communicating pairs indexed.
func (ix *PairIndex) NumPairs() int64 { return int64(len(ix.adj)) }

// NumCells returns the number of cells (rows) the index was built over.
func (ix *PairIndex) NumCells() int { return len(ix.rowStart) - 1 }

// Pair returns the i-th pair in canonical order (a-major, b-ascending).
// It is O(log cells) — fine for spot checks and sampling, not for bulk
// iteration; use Cursor for that.
func (ix *PairIndex) Pair(i int64) (a, b CellID) {
	if i < 0 || i >= int64(len(ix.adj)) {
		panic(fmt.Sprintf("comm: pair index %d out of range [0,%d)", i, len(ix.adj)))
	}
	// Smallest row whose end offset exceeds i owns the pair.
	row := sort.Search(ix.NumCells(), func(r int) bool { return ix.rowStart[r+1] > i })
	return CellID(row), CellID(ix.adj[i])
}

// PairCursor iterates a contiguous range of the canonical pair order.
// The zero value is not useful; obtain cursors from PairIndex.Cursor.
type PairCursor struct {
	ix  *PairIndex
	i   int64
	row int
}

// Cursor returns a cursor positioned at pair index start (0 ≤ start ≤
// NumPairs). A cursor at NumPairs yields no pairs.
func (ix *PairIndex) Cursor(start int64) PairCursor {
	if start < 0 || start > int64(len(ix.adj)) {
		panic(fmt.Sprintf("comm: cursor start %d out of range [0,%d]", start, len(ix.adj)))
	}
	// Last row whose start offset is ≤ start; empty trailing rows are
	// skipped lazily by Next.
	row := sort.Search(len(ix.rowStart), func(r int) bool { return ix.rowStart[r] > start }) - 1
	return PairCursor{ix: ix, i: start, row: row}
}

// Index reports the canonical index of the pair the next Next call will
// return (equal to NumPairs once exhausted).
func (c *PairCursor) Index() int64 { return c.i }

// Next returns the next pair in canonical order, or ok=false when the
// index is exhausted. Callers iterating a shard [lo, hi) bound the loop
// themselves with Index() or a countdown.
func (c *PairCursor) Next() (a, b CellID, ok bool) {
	if c.i >= int64(len(c.ix.adj)) {
		return 0, 0, false
	}
	for c.i >= c.ix.rowStart[c.row+1] {
		c.row++
	}
	a, b = CellID(c.row), CellID(c.ix.adj[c.i])
	c.i++
	return a, b, true
}

// PairIndex returns the graph's CSR communicating-pair index, built once
// and memoized. It is also the graph's freeze-on-first-use guard: after
// the first PairIndex (or CommunicatingPairs) call, mutating the edge
// set — appending, or rewriting an edge in place even preserving the
// count — panics on the next call rather than silently indexing a stale
// pair set. Each call re-hashes the edge list to check, so engines fetch
// the index once and keep it. The returned index is shared; callers must
// not modify it. Graphs built as bare literals (nil memo) recompute
// uncached.
func (g *Graph) PairIndex() *PairIndex {
	if g.memo == nil {
		return g.pairIndexUncached()
	}
	built := false
	g.memo.once.Do(func() {
		g.memo.idx = g.pairIndexUncached()
		g.memo.numEdges = len(g.Edges)
		g.memo.fingerprint = g.edgeFingerprint()
		built = true
	})
	if built {
		return g.memo.idx // fingerprinted just now; no need to hash twice
	}
	if len(g.Edges) != g.memo.numEdges {
		panic(fmt.Sprintf("comm: graph %q mutated after first CommunicatingPairs or PairIndex call (%d edges then, %d now)",
			g.Name, g.memo.numEdges, len(g.Edges)))
	}
	if fp := g.edgeFingerprint(); fp != g.memo.fingerprint {
		panic(fmt.Sprintf("comm: graph %q edges rewritten after first CommunicatingPairs or PairIndex call (content fingerprint %x then, %x now)",
			g.Name, g.memo.fingerprint, fp))
	}
	return g.memo.idx
}

// pairIndexUncached builds the CSR index in O(edges + pairs log degree)
// time with no per-pair map: count per row, prefix-sum, scatter, then
// sort-and-dedup each row in place with a single compaction pass.
func (g *Graph) pairIndexUncached() *PairIndex {
	n := len(g.Cells)
	rowStart := make([]int64, n+1)
	for _, e := range g.Edges {
		if e.From == Host || e.To == Host || e.From == e.To {
			continue
		}
		a := e.From
		if e.To < a {
			a = e.To
		}
		rowStart[a+1]++
	}
	for r := 0; r < n; r++ {
		rowStart[r+1] += rowStart[r]
	}
	adj := make([]int32, rowStart[n])
	fill := make([]int64, n)
	copy(fill, rowStart[:n])
	for _, e := range g.Edges {
		if e.From == Host || e.To == Host || e.From == e.To {
			continue
		}
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		adj[fill[a]] = int32(b)
		fill[a]++
	}
	// Sort each row and compact duplicates. Writes trail reads: the write
	// offset w never exceeds the row's original start, so the in-place
	// compaction is safe.
	var w int64
	for r := 0; r < n; r++ {
		lo, hi := rowStart[r], fill[r]
		rowStart[r] = w
		row := adj[lo:hi]
		slices.Sort(row)
		for k := range row {
			if k > 0 && row[k] == row[k-1] {
				continue
			}
			adj[w] = row[k]
			w++
		}
	}
	rowStart[n] = w
	// Copy into an exact-size backing array so the duplicate slack from
	// bidirectional edge sets is not held for the graph's lifetime.
	final := make([]int32, w)
	copy(final, adj[:w])
	return &PairIndex{rowStart: rowStart, adj: final}
}
