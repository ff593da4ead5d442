package core

import "math/rand"

// lazySource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) without building its 607-word state up front.
//
// math/rand's additive lagged-Fibonacci source seeds every state word
// from three consecutive steps of the Lehmer generator
// x ← 48271·x mod (2³¹−1), XORed with a fixed "cooked" constant:
//
//	vec[i] = (x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ) ^ cooked[i],  xₙ = seed·48271ⁿ
//
// Draw k then returns vec[334−k] + vec[607−k] and stores the sum in
// vec[334−k]. For k ≤ 273 both operands are still untouched initial
// words, so each of the first 273 draws costs six multiply-mods against
// a precomputed power table instead of the 1,841 Lehmer steps and the
// 4.9 KB state of a full seed. The maximal-matching stages draw a
// handful of values per node, far fewer than 273; a source that goes
// further hands over to a real rand.NewSource(seed) advanced past the
// draws already served, so the stream stays bit-identical throughout.
type lazySource struct {
	seed int64  // original seed, for the handover
	x0   uint64 // seed normalized as rngSource.Seed does: [1, 2³¹−2]
	n    int    // draws served so far
	fb   rand.Source64
}

const (
	lehmerMod  = 1<<31 - 1 // the Lehmer modulus, 2³¹−1
	lehmerMul  = 48271
	rngLen     = 607 // math/rand's state length
	rngTap     = 273 // and its tap distance
	rngFeed    = rngLen - rngTap
	lazyDraws  = rngTap // draws that read only initial state words
	zeroSeedTo = 89482311
)

var (
	// wordPow[i] holds 48271ⁿ mod (2³¹−1) for the three Lehmer steps
	// n = 21+3i, 22+3i, 23+3i behind initial state word i.
	wordPow [rngLen][3]uint64
	// rngCooked is math/rand's per-word seeding constant, recovered
	// from the public stream by deriveCooked.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := 1; n <= 20; n++ {
		p = mulMod(p, lehmerMul)
	}
	for i := range wordPow {
		for j := range wordPow[i] {
			p = mulMod(p, lehmerMul)
			wordPow[i][j] = p
		}
	}
	rngCooked = deriveCooked(1)
}

// deriveCooked recovers the cooked table from the first 607 outputs of
// rand.NewSource(ref): those outputs determine ref's initial state
// vec0 exactly, and XORing out ref's Lehmer part leaves the constants.
//
//	out_k = vec0[334−k] + vec0[607−k]        for k ≤ 273
//	out_k = vec0[334−k] + out_{k−273}        for 274 ≤ k ≤ 334
//	out_k = vec0[941−k] + out_{k−273}        for 335 ≤ k ≤ 607
//
// The last two lines give vec0[0..60] and vec0[334..606] directly; the
// first then gives vec0[61..333].
func deriveCooked(ref int64) (cooked [rngLen]uint64) {
	src := rand.NewSource(ref).(rand.Source64)
	var out [rngLen + 1]uint64 // 1-based: out[k] is draw k
	for k := 1; k <= rngLen; k++ {
		out[k] = src.Uint64()
	}
	var vec0 [rngLen]uint64
	for k := lazyDraws + 1; k <= rngFeed; k++ {
		vec0[rngFeed-k] = out[k] - out[k-rngTap]
	}
	for k := rngFeed + 1; k <= rngLen; k++ {
		vec0[rngLen+rngFeed-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= lazyDraws; k++ {
		vec0[rngFeed-k] = out[k] - vec0[rngLen-k]
	}
	x0 := normalizeSeed(ref)
	for i := range cooked {
		cooked[i] = vec0[i] ^ lehmerWord(x0, i)
	}
	return cooked
}

// newLazySource returns a source positioned at the start of
// rand.NewSource(seed)'s stream.
func newLazySource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the start of rand.NewSource(seed)'s stream.
func (s *lazySource) Seed(seed int64) {
	*s = lazySource{seed: seed, x0: normalizeSeed(seed)}
}

// Uint64 returns the next value of the stream.
func (s *lazySource) Uint64() uint64 {
	if s.fb == nil {
		if s.n < lazyDraws {
			s.n++
			return s.word(rngFeed-s.n) + s.word(rngLen-s.n)
		}
		fb := rand.NewSource(s.seed).(rand.Source64)
		for range lazyDraws {
			fb.Uint64()
		}
		s.fb = fb
	}
	return s.fb.Uint64()
}

// Int63 returns the next value of the stream with the top bit cleared,
// as rngSource.Int63 does.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// word is initial state word i of the seeded source.
func (s *lazySource) word(i int) uint64 {
	return lehmerWord(s.x0, i) ^ rngCooked[i]
}

// lehmerWord is the seed-dependent part of initial state word i. The
// shifts wrap exactly like rngSource.Seed's int64 shifts.
func lehmerWord(x0 uint64, i int) uint64 {
	p := &wordPow[i]
	return mulMod(x0, p[0])<<40 ^ mulMod(x0, p[1])<<20 ^ mulMod(x0, p[2])
}

// normalizeSeed maps a seed to the Lehmer start value rngSource.Seed
// uses: seed mod (2³¹−1) in [1, 2³¹−2], with 0 replaced.
func normalizeSeed(seed int64) uint64 {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeedTo
	}
	return uint64(seed)
}

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2]. The product
// fits 62 bits; one fold of the high bits onto the low ones and one
// conditional subtraction finish the reduction (the product is never a
// multiple of the prime modulus, so the result is never 0).
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lehmerMod + p>>31
	if r >= lehmerMod {
		r -= lehmerMod
	}
	return r
}
