package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/parallel"
	"repro/internal/units"
)

// FFT performs an in-place radix-2 decimation-in-time transform of a
// power-of-two-length complex vector. inverse selects the inverse
// transform, which includes the 1/n scaling so FFT(FFT(x, false), true)
// is the identity.
func FFT(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("kernels: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 1; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		theta := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(theta), math.Sin(theta))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				even := x[start+k]
				odd := x[start+k+half] * w
				x[start+k] = even + odd
				x[start+k+half] = even - odd
				w *= wStep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// Cube is a dense complex field on an n x n x n grid (x fastest).
type Cube struct {
	N    int
	Data []complex128
}

// NewCube allocates a zero cube; n must be a power of two.
func NewCube(n int) *Cube {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("kernels: cube edge %d is not a power of two", n))
	}
	return &Cube{N: n, Data: make([]complex128, n*n*n)}
}

// FFT3D transforms the cube in place along all three axes — the 3D FFT
// kernel of Figure 9. Lines along each axis transform independently in
// parallel on the persistent worker team; per-worker strided-line
// buffers are allocated lazily and reused across that worker's chunks.
func (c *Cube) FFT3D(inverse bool, threads int) {
	n := c.N
	workers := parallel.Workers(threads)

	bufs := make([][]complex128, workers)
	run := func(lines int, body func(line int, buf []complex128)) {
		parallel.ForWorker(workers, lines, 0, func(w, lo, hi int) {
			buf := bufs[w]
			if buf == nil {
				buf = make([]complex128, n)
				bufs[w] = buf
			}
			for line := lo; line < hi; line++ {
				body(line, buf)
			}
		})
	}

	// X axis: contiguous lines.
	run(n*n, func(line int, _ []complex128) {
		FFT(c.Data[line*n:(line+1)*n], inverse)
	})
	// Y axis: stride n within a z-plane.
	run(n*n, func(line int, buf []complex128) {
		z := line / n
		x := line % n
		base := z*n*n + x
		for y := 0; y < n; y++ {
			buf[y] = c.Data[base+y*n]
		}
		FFT(buf, inverse)
		for y := 0; y < n; y++ {
			c.Data[base+y*n] = buf[y]
		}
	})
	// Z axis: stride n*n.
	run(n*n, func(line int, buf []complex128) {
		for z := 0; z < n; z++ {
			buf[z] = c.Data[line+z*n*n]
		}
		FFT(buf, inverse)
		for z := 0; z < n; z++ {
			c.Data[line+z*n*n] = buf[z]
		}
	})
}

// FFT3DFlops returns the conventional operation count of one 3D
// transform: 5 N log2(N) with N = n^3 total points.
func FFT3DFlops(n int) float64 {
	total := float64(n) * float64(n) * float64(n)
	return 5 * total * math.Log2(total)
}

// FFT3DOI returns the operational intensity of an out-of-cache 3D FFT:
// three passes, each streaming the 16-byte complex cube in and out, is
// the conventional accounting behind Figure 9's ~1.6 FLOP/B at the
// paper's problem sizes (n = 2^9 per side).
func FFT3DOI(n int) float64 {
	total := float64(n) * float64(n) * float64(n)
	traffic := 3 * 2 * 16 * total
	return FFT3DFlops(n) / traffic
}

// MeasureFFT3D times iters forward transforms and returns the rate.
func MeasureFFT3D(n, threads, iters int) units.Rate {
	if iters <= 0 {
		panic("kernels: iters must be positive")
	}
	c := NewCube(n)
	for i := range c.Data {
		c.Data[i] = complex(float64(i%17), float64(i%5))
	}
	c.FFT3D(false, threads) // warmup
	start := time.Now()
	for it := 0; it < iters; it++ {
		c.FFT3D(false, threads)
	}
	sec := time.Since(start).Seconds()
	return units.Rate(FFT3DFlops(n) * float64(iters) / sec)
}
