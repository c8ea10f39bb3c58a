// Package rng provides the deterministic random number generation used by
// the sanitizer (multinomial user-ID sampling), the Laplace mechanism of
// §4.2, and the synthetic corpus generator (bounded Zipf variates). All
// randomness in the repository flows through this package so that every
// experiment is reproducible from a single seed.
package rng

import (
	"math"
	"math/rand/v2"
	"sort"
)

// RNG is a deterministic pseudo-random source. It wraps math/rand/v2's PCG
// so that streams are stable across runs and platforms for a fixed seed.
type RNG struct {
	r *rand.Rand
}

// New returns an RNG seeded with the given value.
func New(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

// Split derives an independent child stream; the parent advances by one
// draw. Useful for giving each pair's sampler its own stream.
func (g *RNG) Split() *RNG {
	return &RNG{r: rand.New(rand.NewPCG(g.r.Uint64(), 0xbf58476d1ce4e5b9))}
}

// Float64 returns a uniform variate in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform variate in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Int64N returns a uniform variate in [0, n).
func (g *RNG) Int64N(n int64) int64 { return g.r.Int64N(n) }

// Uint64 returns a uniform 64-bit variate.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Laplace returns a variate from the Laplace distribution with mean 0 and
// the given scale parameter b (density (1/2b)·exp(−|x|/b)), via inverse-CDF
// sampling. This is the noise distribution Lap(d/ε′) of §4.2.
func (g *RNG) Laplace(scale float64) float64 {
	return laplace(g.r.Float64(), scale)
}

// laplaceMinTail clamps the inverse-CDF argument away from zero. Float64
// draws lie on the 2⁻⁵³ grid, so the smallest nonzero value of 1±2u is
// 2⁻⁵²; clamping the u01 = 0 edge draw to the adjacent grid point keeps the
// tail magnitude at its legitimate maximum (≈ 36·scale) instead of −Inf.
const laplaceMinTail = 0x1p-52

// laplace maps a uniform u01 ∈ [0, 1) through the Laplace inverse CDF.
// The edge draw u01 = 0 (u = −0.5) would otherwise produce scale·log(0) =
// −Inf — an infinite noise value that poisons the §4.2 noisy counts and
// everything downstream of the feasibility projection.
func laplace(u01, scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	u := u01 - 0.5 // [-0.5, 0.5)
	if u >= 0 {
		t := 1 - float64(2*u)
		if t < laplaceMinTail {
			t = laplaceMinTail
		}
		return -scale * math.Log(t)
	}
	t := 1 + float64(2*u)
	if t < laplaceMinTail {
		t = laplaceMinTail
	}
	return scale * math.Log(t)
}

// Zipf samples from a bounded Zipf distribution over {0, …, n−1} with
// exponent s > 0: P(k) ∝ 1/(k+1)^s. The cumulative table costs O(n) memory
// and each draw is O(log n); n up to a few hundred thousand is intended.
type Zipf struct {
	cdf []float64
	g   *RNG
}

// NewZipf builds a bounded Zipf sampler. It panics for n ≤ 0 or s ≤ 0, which
// indicate programmer error in generator profiles.
func NewZipf(g *RNG, s float64, n int) *Zipf {
	if n <= 0 || s <= 0 {
		panic("rng: NewZipf requires n > 0 and s > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	inv := 1 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, g: g}
}

// Sample draws one rank.
func (z *Zipf) Sample() int {
	u := z.g.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cdf) }
