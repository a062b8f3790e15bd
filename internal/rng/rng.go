// Package rng provides small, fast, deterministic pseudo-random number
// generators for workload synthesis (R-MAT graphs, random pointer-chase
// lists, synthetic matrices). Determinism matters: every experiment in the
// reproduction must produce identical workloads across runs and platforms,
// so we avoid math/rand's historical Source behaviour differences and seed
// handling and implement xoshiro256** with a splitmix64 seeder.
package rng

import "math"

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// with New.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64, per the xoshiro
// authors' recommendation, guaranteeing a non-zero state.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	return r
}

// splitmix64 advances the splitmix state and returns (newState, output).
func splitmix64(x uint64) (uint64, uint64) {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return x, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Classic modulo rejection; threshold keeps the result unbiased.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller, polar form).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle permutes the first n elements using swap, as in math/rand.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
