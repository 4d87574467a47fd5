package stats

import "math/rand"

// KeyedStream is the stream of NewRNG(seed).Fork(id), read without
// building the generator. Every draw equals the corresponding draw of
// the forked RNG bit for bit, but a fresh KeyedStream costs nothing to
// make, allocates nothing, and each of its first draws is six modular
// multiplies, where forking seeds a 607-word math/rand source (~5 KB and
// ~1,800 Lehmer steps) first. It suits the "one random decision per
// event key" pattern: fault injection forks a stream per handshake
// message and reads two or three values from it.
//
// How: math/rand seeds its additive lagged-Fibonacci table with the
// Lehmer generator x ← 48271·x mod (2³¹−1), so word i of a table seeded
// with s is (x₃ᵢ₊₂₁<<40) ^ (x₃ᵢ₊₂₂<<20) ^ x₃ᵢ₊₂₃ ^ rngCooked[i], where
// x_k = s·48271^k mod (2³¹−1). Draw j sums words 333−j and 606−j, and
// for j < 273 neither has been overwritten by feedback yet, so each such
// draw is two table words computed on demand. Draw 273 on, the stream
// builds the real source and skips ahead, so long streams stay exact
// too. A fault decision takes at most three Float64s; each retries its
// f == 1 case with probability 2⁻⁵⁴, so in practice it never gets there.
//
// A KeyedStream is used through a pointer (its draws advance it) and, as
// an RNG, by one goroutine at a time. A copy taken after the fallback
// source was built shares that source.
type KeyedStream struct {
	s   uint64        // the seed after math/rand's reduction, in [1, 2³¹−2]
	n   int           // draws taken so far
	src rand.Source64 // the real source, built on the first draw past the unfed window
}

// NewKeyedStream returns the stream of NewRNG(seed).Fork(id).
func NewKeyedStream(seed, id int64) KeyedStream {
	return seededStream(forkSeed(seed, id))
}

// seededStream returns the stream of rand.NewSource(seed), reducing the
// seed exactly as math/rand's Seed does.
func seededStream(seed int64) KeyedStream {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return KeyedStream{s: uint64(seed)}
}

// lehmerPow[k] is 48271^k mod (2³¹−1), for every k a seeded word uses.
var lehmerPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * 48271 % int32max
	}
	return p
}()

// word returns word i of the source's freshly seeded table.
func (k *KeyedStream) word(i int) int64 {
	p := lehmerPow[3*i+21 : 3*i+24]
	u := mulMod(k.s, p[0])<<40 ^ mulMod(k.s, p[1])<<20 ^ mulMod(k.s, p[2])
	return int64(u) ^ rngCooked[i]
}

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2]. The product is
// below 2⁶², and 2³¹ ≡ 1 folds it to at most 2·(2³¹−1). The prime modulus
// divides neither factor, so the product is never ≡ 0 and one
// subtraction lands the fold in [1, 2³¹−2].
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// Uint64 returns the next 64-bit value of the stream: the source's
// Uint64, as rand.New(rand.NewSource(seed)).Uint64 returns it.
func (k *KeyedStream) Uint64() uint64 {
	j := k.n
	k.n++
	if j < rngTap {
		return uint64(k.word(rngLen-rngTap-1-j) + k.word(rngLen-1-j))
	}
	if k.src == nil {
		k.src = rand.NewSource(int64(k.s)).(rand.Source64)
		for i := 0; i < j; i++ {
			k.src.Uint64()
		}
	}
	return k.src.Uint64()
}

// Float64 returns a sample from U[0, 1), with math/rand's arithmetic.
func (k *KeyedStream) Float64() float64 {
	for {
		if f := float64(int64(k.Uint64()&rngMask)) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Bernoulli returns true with probability p.
func (k *KeyedStream) Bernoulli(p float64) bool { return k.Float64() < p }
