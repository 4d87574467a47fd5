package stats

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where math/rand's seed reduction branches:
// zero (replaced by 89482311), negatives, multiples of 2³¹−1 (reduced to
// zero), the int64 extremes, and the replacement value itself.
var edgeSeeds = []int64{
	0, 1, -1, 2, -2,
	int32max, -int32max, 2 * int32max, -2 * int32max, (1 << 31) * int32max, -(1 << 31) * int32max,
	int32max - 1, int32max + 1, -(int32max - 1), -(int32max + 1),
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	89482311, -89482311,
}

// checkKeyedSource diffs n Uint64 draws of the keyed stream of seed
// against a real math/rand source seeded the same way.
func checkKeyedSource(t *testing.T, seed int64, n int) {
	t.Helper()
	k := seededStream(seed)
	src := rand.NewSource(seed).(rand.Source64)
	for j := 0; j < n; j++ {
		if got, want := k.Uint64(), src.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: keyed %#x, math/rand %#x", seed, j, got, want)
		}
	}
}

// TestKeyedSourceEdgeSeeds: the seed reduction and the jump-ahead table
// reproduce math/rand's seeding over the full unfed window (273 draws)
// for every reduction branch.
func TestKeyedSourceEdgeSeeds(t *testing.T) {
	for _, s := range edgeSeeds {
		checkKeyedSource(t, s, rngTap)
	}
}

// TestKeyedSourcePastFallback: one stream drawn well past the unfed
// window, where it hands over to a real source skipped ahead.
func TestKeyedSourcePastFallback(t *testing.T) {
	checkKeyedSource(t, 20240611, 3*rngLen)
	checkKeyedSource(t, 0, 2*rngLen)
}

// TestKeyedStreamMatchesFork is the differential oracle: over 20,000
// random (seed, id) pairs plus every edge seed as both seed and id, a
// KeyedStream's draws equal NewRNG(seed).Fork(id)'s, bit for bit, in a
// random interleaving of Float64, Bernoulli and Uint64 (against Int63,
// which is Uint64 with the top bit cleared).
func TestKeyedStreamMatchesFork(t *testing.T) {
	meta := rand.New(rand.NewSource(1))
	type pair struct{ seed, id int64 }
	var pairs []pair
	for i := 0; i < 20000; i++ {
		pairs = append(pairs, pair{int64(meta.Uint64()), int64(meta.Uint64())})
	}
	for _, s := range edgeSeeds {
		pairs = append(pairs, pair{s, 7}, pair{42, s}, pair{s, s})
	}
	for _, p := range pairs {
		k := NewKeyedStream(p.seed, p.id)
		r := NewRNG(p.seed).Fork(p.id)
		for j, ops := 0, 1+meta.Intn(6); j < ops; j++ {
			switch op := meta.Intn(3); op {
			case 0:
				if got, want := k.Float64(), r.Float64(); got != want {
					t.Fatalf("seed %d id %d draw %d: Float64 %v, Fork %v", p.seed, p.id, j, got, want)
				}
			case 1:
				q := meta.Float64()
				if got, want := k.Bernoulli(q), r.Bernoulli(q); got != want {
					t.Fatalf("seed %d id %d draw %d: Bernoulli(%v) %v, Fork %v", p.seed, p.id, j, q, got, want)
				}
			case 2:
				if got, want := int64(k.Uint64()&rngMask), r.Int63(); got != want {
					t.Fatalf("seed %d id %d draw %d: Uint64 %#x, Fork Int63 %#x", p.seed, p.id, j, got, want)
				}
			}
		}
	}
}

// TestKeyedStreamFloat64PastFallback: 700 Float64 draws, crossing the
// fallback, match the forked RNG.
func TestKeyedStreamFloat64PastFallback(t *testing.T) {
	k := NewKeyedStream(-3, 11)
	r := NewRNG(-3).Fork(11)
	for j := 0; j < 700; j++ {
		if got, want := k.Float64(), r.Float64(); got != want {
			t.Fatalf("draw %d: %v != %v", j, got, want)
		}
	}
}

// FuzzKeyedStream diffs n draws of NewKeyedStream(seed, id) against
// NewRNG(seed).Fork(id) and, for the raw source, rand.NewSource.
func FuzzKeyedStream(f *testing.F) {
	f.Add(int64(0), int64(0), uint16(4))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint16(300))
	f.Fuzz(func(t *testing.T, seed, id int64, n uint16) {
		n %= 1000
		k := NewKeyedStream(seed, id)
		r := NewRNG(seed).Fork(id)
		for j := 0; j < int(n); j++ {
			if got, want := k.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d id %d draw %d: Float64 %v, Fork %v", seed, id, j, got, want)
			}
		}
		checkKeyedSource(t, seed, int(n))
	})
}
