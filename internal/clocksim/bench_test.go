package clocksim

import (
	"testing"

	"repro/internal/clocktree"
	"repro/internal/comm"
	"repro/internal/faults"
	"repro/internal/stats"
)

// The benchmarks here are the perf suite behind BENCH_clocksim.json:
// the Reference* group measures the retained pre-kernel implementations
// (the "before" column), the package-function group the kernel-backed
// entry points, and the Kernel* group the amortized regime the serving
// path lives in, where one Kernel is built once and queried per trial.

func benchSetup(b *testing.B, n int) (*comm.Graph, *clocktree.Tree) {
	b.Helper()
	g, err := comm.Mesh(n, n)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := clocktree.HTree(g)
	if err != nil {
		b.Fatal(err)
	}
	return g, tree
}

func benchParams() Params {
	return Params{M: 1, Eps: 0.2, BufferDelay: 0.1, MinSeparation: 2, RiseFallBias: 0.05}
}

func BenchmarkReferenceRandomSkew32(b *testing.B) {
	g, tree := benchSetup(b, 32)
	p := benchParams()
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr, err := ReferenceRandom(tree, p, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := arr.MaxCommSkew(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomSkew32(b *testing.B) {
	g, tree := benchSetup(b, 32)
	p := benchParams()
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr, err := Random(tree, p, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := arr.MaxCommSkew(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReferenceMaxEventDrift32(b *testing.B) {
	_, tree := benchSetup(b, 32)
	bt, err := clocktree.Buffered(tree, 1.5)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ReferenceMaxEventDrift(bt, p)
	}
}

func BenchmarkClocksimKernelBuild32(b *testing.B) {
	g, tree := benchSetup(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewKernel(g, tree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelRandomSkew32(b *testing.B) {
	g, tree := benchSetup(b, 32)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.RandomSkew(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSkewSteadyState is the inner loop the CI bench-smoke
// job gates on: one random-regime skew query from a warm arena pool must
// report 0 allocs/op.
func BenchmarkKernelSkewSteadyState(b *testing.B) {
	g, tree := benchSetup(b, 32)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	rng := stats.NewRNG(7)
	if _, err := k.RandomSkew(p, rng); err != nil { // warm the arena pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.RandomSkew(p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelJitteredSkew64 is one jittered-regime trial on a 64²
// H-tree, the /v1/simulate regime:"jittered" inner loop: every tree edge
// draws a keyed fault decision. The CI bench-smoke job gates it at ≤ 64
// allocs/op.
func BenchmarkKernelJitteredSkew64(b *testing.B) {
	g, tree := benchSetup(b, 64)
	k, err := NewKernel(g, tree)
	if err != nil {
		b.Fatal(err)
	}
	p := benchParams()
	rng := stats.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inj, err := faults.New(faults.Config{JitterProb: 0.1, MaxJitter: 0.5}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := k.JitteredSkew(p, rng, inj); err != nil {
			b.Fatal(err)
		}
	}
}
