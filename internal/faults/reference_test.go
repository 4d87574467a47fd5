package faults

import (
	"testing"

	"repro/internal/stats"
)

// referenceInjector is the injector as it was before keyed streams: each
// decision forks a fresh stats.RNG from a base generator. It is kept
// verbatim as the oracle for Injector's decisions.
type referenceInjector struct {
	cfg        Config
	base       *stats.RNG
	counts     Counts
	totalExtra float64
}

func (in *referenceInjector) fork(class, key uint64) *stats.RNG {
	return in.base.Fork(int64(class*0x9E3779B97F4A7C15 ^ key))
}

func (in *referenceInjector) MessageExtra(key uint64) float64 {
	if in == nil || !in.cfg.Enabled() {
		return 0
	}
	r := in.fork(1, key)
	in.counts.Messages++
	var extra float64
	switch {
	case in.cfg.DropProb > 0 && r.Bernoulli(in.cfg.DropProb):
		in.counts.Dropped++
		extra = in.cfg.RetransmitTimeout
	case in.cfg.DelayProb > 0 && r.Bernoulli(in.cfg.DelayProb):
		in.counts.Delayed++
		extra = in.cfg.MaxDelay * (1 - r.Float64())
	}
	extra += in.metastableStall(r)
	in.totalExtra += extra
	return extra
}

func (in *referenceInjector) EdgeJitter(key uint64) float64 {
	if in == nil || in.cfg.JitterProb == 0 {
		return 0
	}
	r := in.fork(2, key)
	if !r.Bernoulli(in.cfg.JitterProb) {
		return 0
	}
	in.counts.Jittered++
	extra := in.cfg.MaxJitter * (1 - r.Float64())
	in.totalExtra += extra
	return extra
}

func (in *referenceInjector) MetastableStall(key uint64) float64 {
	if in == nil || in.cfg.MetastableProb == 0 {
		return 0
	}
	stall := in.metastableStall(in.fork(3, key))
	in.totalExtra += stall
	return stall
}

func (in *referenceInjector) metastableStall(r *stats.RNG) float64 {
	if in.cfg.MetastableProb == 0 || !r.Bernoulli(in.cfg.MetastableProb) {
		return 0
	}
	in.counts.Metastable++
	return in.cfg.MetastableStall
}

// TestInjectorMatchesReference: every decision, count and accumulated
// extra equals the fork-per-decision reference's, bit for bit, across
// seeds (including negative and zero), configs and keys.
func TestInjectorMatchesReference(t *testing.T) {
	configs := []Config{
		enabledConfig(),
		{DropProb: 1, RetransmitTimeout: 2},
		{DelayProb: 0.4, MaxDelay: 1e-3},
		{MetastableProb: 0.5, MetastableStall: 0.25},
		{JitterProb: 0.9, MaxJitter: 7},
	}
	for _, cfg := range configs {
		for _, seed := range []int64{0, 1, -1, 42, 1<<62 + 3, -(1<<31 - 1)} {
			in, err := New(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := &referenceInjector{cfg: cfg, base: stats.NewRNG(seed)}
			for k := uint64(0); k < 600; k++ {
				key := k * 0x100000001b3
				if got, want := in.MessageExtra(key), ref.MessageExtra(key); got != want {
					t.Fatalf("%+v seed %d: MessageExtra(%d) = %v, reference %v", cfg, seed, key, got, want)
				}
				if got, want := in.EdgeJitter(key), ref.EdgeJitter(key); got != want {
					t.Fatalf("%+v seed %d: EdgeJitter(%d) = %v, reference %v", cfg, seed, key, got, want)
				}
				if got, want := in.MetastableStall(key), ref.MetastableStall(key); got != want {
					t.Fatalf("%+v seed %d: MetastableStall(%d) = %v, reference %v", cfg, seed, key, got, want)
				}
			}
			if in.Counts() != ref.counts || in.TotalExtra() != ref.totalExtra {
				t.Fatalf("%+v seed %d: counts %+v extra %v, reference %+v %v",
					cfg, seed, in.Counts(), in.TotalExtra(), ref.counts, ref.totalExtra)
			}
		}
	}
}

// TestMessageExtraAllocs: a fault decision allocates nothing.
func TestMessageExtraAllocs(t *testing.T) {
	in, err := New(enabledConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		in.MessageExtra(key)
		in.EdgeJitter(key)
		in.MetastableStall(key)
		key++
	})
	if allocs != 0 {
		t.Errorf("fault decisions make %v allocs, want 0", allocs)
	}
}

// BenchmarkMessageExtra is one handshake-message fault decision; the CI
// bench-smoke job gates it at 0 allocs/op.
func BenchmarkMessageExtra(b *testing.B) {
	in, err := New(enabledConfig(), 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.MessageExtra(uint64(i))
	}
}
