// Package kernels implements, as real host-executable code, two of the
// four scientific kernels the paper's roofline analysis (Section IV,
// Figure 9) places on the E870 model: the 7-point 3D stencil and the 3D
// fast Fourier transform. The paper only positions them by operational
// intensity; having the kernels executable lets tests verify those
// intensities from first principles and lets users measure them on any
// host.
package kernels

import (
	"fmt"
	"time"

	"repro/internal/parallel"
	"repro/internal/units"
)

// Grid3D is a dense scalar field on an nx x ny x nz grid, row-major with
// x fastest.
type Grid3D struct {
	NX, NY, NZ int
	Data       []float64
}

// NewGrid3D allocates a zero grid.
func NewGrid3D(nx, ny, nz int) *Grid3D {
	if nx < 3 || ny < 3 || nz < 3 {
		panic(fmt.Sprintf("kernels: grid %dx%dx%d too small for a 7-point stencil", nx, ny, nz))
	}
	return &Grid3D{NX: nx, NY: ny, NZ: nz, Data: make([]float64, nx*ny*nz)}
}

// Set assigns the value at (x, y, z).
func (g *Grid3D) Set(x, y, z int, v float64) { g.Data[(z*g.NY+y)*g.NX+x] = v }

// Fill sets every point from f(x, y, z).
func (g *Grid3D) Fill(f func(x, y, z int) float64) {
	for z := 0; z < g.NZ; z++ {
		for y := 0; y < g.NY; y++ {
			for x := 0; x < g.NX; x++ {
				g.Set(x, y, z, f(x, y, z))
			}
		}
	}
}

// StencilCoeffs are the 7-point stencil weights: c0 for the centre, c1
// for each of the six neighbours. The classic Jacobi iteration for the
// Laplace equation uses c0 = 0, c1 = 1/6.
type StencilCoeffs struct {
	C0, C1 float64
}

// JacobiCoeffs returns the Laplace-Jacobi weights.
func JacobiCoeffs() StencilCoeffs { return StencilCoeffs{C0: 0, C1: 1.0 / 6} }

// Stencil7 applies one 7-point stencil sweep to the interior of src,
// writing dst (boundaries copy through). Parallel over z-planes on the
// persistent worker team with dynamic chunking, so repeated sweeps
// (ping-pong Jacobi iteration) spawn no goroutines. Every plane's
// writes are disjoint and computed in the same order as the sequential
// sweep, so results are bit-identical regardless of schedule.
func Stencil7(dst, src *Grid3D, c StencilCoeffs, threads int) {
	if dst.NX != src.NX || dst.NY != src.NY || dst.NZ != src.NZ {
		panic("kernels: grid shape mismatch")
	}
	nx, ny, nz := src.NX, src.NY, src.NZ
	workers := parallel.Workers(threads)
	parallel.For(workers, nz, 1, func(zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			if z == 0 || z == nz-1 {
				copy(dst.Data[z*ny*nx:(z+1)*ny*nx], src.Data[z*ny*nx:(z+1)*ny*nx])
				continue
			}
			for y := 0; y < ny; y++ {
				row := (z*ny + y) * nx
				if y == 0 || y == ny-1 {
					copy(dst.Data[row:row+nx], src.Data[row:row+nx])
					continue
				}
				dst.Data[row] = src.Data[row]
				for x := 1; x < nx-1; x++ {
					i := row + x
					dst.Data[i] = c.C0*src.Data[i] + c.C1*(src.Data[i-1]+src.Data[i+1]+
						src.Data[i-nx]+src.Data[i+nx]+
						src.Data[i-nx*ny]+src.Data[i+nx*ny])
				}
				dst.Data[row+nx-1] = src.Data[row+nx-1]
			}
		}
	})
}

// StencilFlopsPerPoint is the floating-point work of one interior update:
// 6 adds inside the neighbour sum would be 5, plus 2 multiplies and 1 add
// for the weighted combination — 8 FLOPs, the conventional count.
const StencilFlopsPerPoint = 8

// StencilOI returns the operational intensity of an out-of-cache stencil
// sweep: 8 FLOPs per point over one 8-byte read plus one 8-byte write
// (neighbour reuse comes from cache), the conventional ~0.5 FLOP/B that
// Figure 9 uses.
func StencilOI() float64 { return StencilFlopsPerPoint / 16.0 }

// MeasureStencil times iters sweeps (ping-pong buffers) and returns the
// sustained rate.
func MeasureStencil(n, threads, iters int) units.Rate {
	if iters <= 0 {
		panic("kernels: iters must be positive")
	}
	a := NewGrid3D(n, n, n)
	b := NewGrid3D(n, n, n)
	a.Fill(func(x, y, z int) float64 { return float64((x + 2*y + 3*z) % 7) })
	c := JacobiCoeffs()
	Stencil7(b, a, c, threads) // warmup
	interior := float64(n-2) * float64(n-2) * float64(n-2)
	start := time.Now()
	for it := 0; it < iters; it++ {
		Stencil7(b, a, c, threads)
		a, b = b, a
	}
	sec := time.Since(start).Seconds()
	return units.Rate(interior * StencilFlopsPerPoint * float64(iters) / sec)
}
