package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// lazySourceSeeds covers the seed normalization edge cases (zero, its
// replacement value, negatives, the extremes, multiples of the Lehmer
// modulus and their neighbours) plus nodeRand's own hashed seeds.
func lazySourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, zeroSeedTo, -zeroSeedTo,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32,
		lehmerMod, -lehmerMod, 2 * lehmerMod, lehmerMod - 1, lehmerMod + 1,
		lehmerMod * 1000003, -lehmerMod * 7, lehmerMod*(math.MaxInt64/lehmerMod) - 1,
	}
	for i := range int64(200) {
		seeds = append(seeds, int64(mix64(uint64(i)^uint64(i)<<20)))
	}
	return seeds
}

// TestLazySourceMatchesMathRand pins the tentpole property: the lazy
// source is rand.NewSource's stream, bit for bit, across the 273-draw
// handover to the real source.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const draws = 1500
	for _, seed := range lazySourceSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := newLazySource(seed)
		for k := 1; k <= draws; k++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

func TestLazySourceInt63AndReseed(t *testing.T) {
	for _, seed := range lazySourceSeeds()[:40] {
		want := rand.NewSource(seed)
		got := newLazySource(seed + 1)
		got.Seed(seed) // reseeding a used source restarts the stream
		for k := 1; k <= 400; k++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, k, g, w)
			}
		}
	}
}

// TestLazySourceThroughRand checks the methods the matching stages call
// through rand.Rand.
func TestLazySourceThroughRand(t *testing.T) {
	for _, seed := range lazySourceSeeds()[:60] {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newLazySource(seed))
		for n := 1; n <= 40; n++ {
			if w, g := want.Perm(n), got.Perm(n); !slices.Equal(w, g) {
				t.Fatalf("seed %d: Perm(%d) = %v, want %v", seed, n, g, w)
			}
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("seed %d: Intn(%d) = %d, want %d", seed, n, g, w)
			}
		}
	}
}

// TestDeriveCookedIndependentOfReference: any reference seed recovers
// the same constants, so the table is math/rand's and not an artifact
// of the seed used to derive it.
func TestDeriveCookedIndependentOfReference(t *testing.T) {
	for _, ref := range []int64{2, -5, zeroSeedTo, math.MaxInt64} {
		if deriveCooked(ref) != rngCooked {
			t.Fatalf("deriveCooked(%d) differs from deriveCooked(1)", ref)
		}
	}
}

func TestMulMod(t *testing.T) {
	for _, c := range [][2]uint64{{1, 1}, {lehmerMod - 1, lehmerMod - 1}, {lehmerMul, lehmerMod - 2}, {123456789, 987654321}} {
		if got, want := mulMod(c[0], c[1]), c[0]*c[1]%lehmerMod; got != want {
			t.Errorf("mulMod(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
}
