// Package stats provides the deterministic random-number generation,
// distribution sampling, and summary-statistics primitives shared by the
// simulator, the workload generator, and the experiment harness.
//
// Everything in this package is seeded explicitly: the same seed yields the
// same sample path on every platform, which is what makes the discrete-event
// experiments in internal/harness reproducible.
package stats

import "math"

// RNG is a xoshiro256** pseudo-random generator. It is small, fast, has a
// 2^256-1 period, and — unlike math/rand's global state — is safe to embed
// one-per-simulation-entity so that adding a new consumer of randomness does
// not perturb existing sample paths.
//
// RNG is not safe for concurrent use; give each goroutine its own instance
// (see Split).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which guarantees
// a well-mixed nonzero state even for small or zero seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from the parent by mixing a fresh draw through SplitMix64.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Float64 returns a uniform sample in [0,1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul128(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	c = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// NormFloat64 returns a standard normal sample (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an Exp(1) sample.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns a sample of exp(N(mu, sigma^2)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a sample from a Pareto distribution with scale xm > 0 and
// shape alpha > 0 — the canonical heavy-tailed latency model.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm / math.Pow(u, 1/alpha)
		}
	}
}
