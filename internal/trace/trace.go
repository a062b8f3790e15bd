// Package trace generates the synthetic memory-access patterns the
// microbenchmarks in the paper are built from: sequential streams, strided
// streams, random pointer chases (lmbench's dependent-load pattern),
// randomly-ordered blocks scanned sequentially (the DCBT experiment), and
// interleaved multi-stream traffic.
//
// A generator yields physical line addresses; the consuming simulator is
// responsible for translation and hierarchy behaviour. Addresses are plain
// uint64 byte addresses aligned to the line size.
package trace

import (
	"repro/internal/rng"
	"repro/internal/units"
)

// LineSize is the fixed 128-byte POWER8 cache line.
const LineSize = 128

// Generator yields a sequence of byte addresses. Next reports ok=false
// when the sequence is exhausted; Reset restarts it from the beginning,
// reproducing the identical sequence.
type Generator interface {
	Next() (addr uint64, ok bool)
	Reset()
}

// Sequential walks n lines starting at base, one line at a time.
type Sequential struct {
	Base  uint64
	Lines int
	pos   int
}

// NewSequential returns a sequential walk of n lines from base.
func NewSequential(base uint64, n int) *Sequential {
	return &Sequential{Base: base, Lines: n}
}

// Next implements Generator.
func (s *Sequential) Next() (uint64, bool) {
	if s.pos >= s.Lines {
		return 0, false
	}
	addr := s.Base + uint64(s.pos)*LineSize
	s.pos++
	return addr, true
}

// Reset implements Generator.
func (s *Sequential) Reset() { s.pos = 0 }

// Strided accesses every stride-th line: n accesses at base, base +
// stride*LineSize, ... This is the "stride-N stream" pattern of Figure 7.
type Strided struct {
	Base        uint64
	StrideLines int
	Count       int
	pos         int
}

// NewStrided returns a strided walk: count accesses, stride lines apart.
func NewStrided(base uint64, strideLines, count int) *Strided {
	if strideLines <= 0 {
		panic("trace: stride must be positive")
	}
	return &Strided{Base: base, StrideLines: strideLines, Count: count}
}

// Next implements Generator.
func (s *Strided) Next() (uint64, bool) {
	if s.pos >= s.Count {
		return 0, false
	}
	addr := s.Base + uint64(s.pos)*uint64(s.StrideLines)*LineSize
	s.pos++
	return addr, true
}

// Reset implements Generator.
func (s *Strided) Reset() { s.pos = 0 }

// Chase is a random pointer chase: a single cycle visiting every line of
// the working set exactly once per lap, in a fixed random order (Sattolo's
// algorithm guarantees one cycle). Each access depends on the previous
// one, which is what makes it a latency — not bandwidth — benchmark.
//
// The dependence is simulated, not paid for on the host: the cycle is
// flattened at construction into its visit order, so Next reads one
// array sequentially. A Chase is built once per working set and rewound
// with Reset for every lap that walks the same cycle.
type Chase struct {
	base  uint64
	order []int32 // order[k] = index of the k-th line visited in a lap
	laps  int
	lap   int
	step  int
}

// NewChase builds a pointer chase over lines cache lines starting at base,
// visiting each once per lap for laps laps, in a random cyclic order drawn
// from seed. Every lap starts at line 0.
func NewChase(base uint64, lines, laps int, seed uint64) *Chase {
	if lines < 2 {
		panic("trace: chase needs at least two lines")
	}
	next := make([]int32, lines)
	for i := range next {
		next[i] = int32(i)
	}
	r := rng.New(seed)
	// Sattolo's algorithm: a uniformly random single-cycle permutation,
	// read as next[i] = the line after line i.
	for i := lines - 1; i > 0; i-- {
		j := r.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	order := make([]int32, lines)
	for k, cur := 1, next[0]; k < lines; k, cur = k+1, next[cur] {
		order[k] = cur
	}
	return &Chase{base: base, order: order, laps: laps}
}

// WorkingSet returns the size of the chased region.
func (c *Chase) WorkingSet() units.Bytes {
	return units.Bytes(len(c.order)) * LineSize
}

// Next implements Generator.
func (c *Chase) Next() (uint64, bool) {
	if c.lap >= c.laps {
		return 0, false
	}
	addr := c.base + uint64(c.order[c.step])*LineSize
	c.step++
	if c.step == len(c.order) {
		c.step = 0
		c.lap++
	}
	return addr, true
}

// Reset implements Generator.
func (c *Chase) Reset() { c.lap = 0; c.step = 0 }

// BlockedRandom divides a region into blocks of blockLines lines, visits
// the blocks in a fixed random order, and scans each block sequentially —
// the access pattern of the DCBT experiment (Figure 8): long enough runs
// for a prefetcher to engage, but only after it re-detects each block.
type BlockedRandom struct {
	base       uint64
	blockLines int
	order      []int32
	blockIdx   int
	line       int
}

// NewBlockedRandom builds the pattern over blocks*blockLines lines.
func NewBlockedRandom(base uint64, blocks, blockLines int, seed uint64) *BlockedRandom {
	if blocks <= 0 || blockLines <= 0 {
		panic("trace: blocks and blockLines must be positive")
	}
	order := make([]int32, blocks)
	for i := range order {
		order[i] = int32(i)
	}
	r := rng.New(seed)
	r.Shuffle(blocks, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &BlockedRandom{base: base, blockLines: blockLines, order: order}
}

// Next implements Generator.
func (b *BlockedRandom) Next() (uint64, bool) {
	if b.blockIdx >= len(b.order) {
		return 0, false
	}
	block := uint64(b.order[b.blockIdx])
	addr := b.base + (block*uint64(b.blockLines)+uint64(b.line))*LineSize
	b.line++
	if b.line == b.blockLines {
		b.line = 0
		b.blockIdx++
	}
	return addr, true
}

// Reset implements Generator.
func (b *BlockedRandom) Reset() { b.blockIdx = 0; b.line = 0 }

// BlockStart reports whether the next access begins a new block; the DCBT
// microbenchmark issues its software-prefetch hint at block starts.
func (b *BlockedRandom) BlockStart() bool { return b.line == 0 && b.blockIdx < len(b.order) }

// Interleave round-robins between several generators, modelling
// independent concurrent streams observed by a shared resource. A drained
// generator drops out of the rotation.
type Interleave struct {
	gens []Generator
	pos  int
	live []bool
	left int
}

// NewInterleave combines gens round-robin.
func NewInterleave(gens ...Generator) *Interleave {
	live := make([]bool, len(gens))
	for i := range live {
		live[i] = true
	}
	return &Interleave{gens: gens, live: live, left: len(gens)}
}

// Next implements Generator.
func (iv *Interleave) Next() (uint64, bool) {
	for iv.left > 0 {
		i := iv.pos
		iv.pos = (iv.pos + 1) % len(iv.gens)
		if !iv.live[i] {
			continue
		}
		if addr, ok := iv.gens[i].Next(); ok {
			return addr, true
		}
		iv.live[i] = false
		iv.left--
	}
	return 0, false
}

// Reset implements Generator.
func (iv *Interleave) Reset() {
	for i, g := range iv.gens {
		g.Reset()
		iv.live[i] = true
	}
	iv.left = len(iv.gens)
	iv.pos = 0
}

// Collect drains up to max addresses from g (all of them if max <= 0).
func Collect(g Generator, max int) []uint64 {
	var out []uint64
	for {
		addr, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, addr)
		if max > 0 && len(out) >= max {
			return out
		}
	}
}
