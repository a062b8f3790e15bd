package kernels

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/roofline"
)

func TestStencilMatchesNaive(t *testing.T) {
	const n = 10
	src := NewGrid3D(n, n, n)
	r := rng.New(3)
	src.Fill(func(x, y, z int) float64 { return r.NormFloat64() })
	dst := NewGrid3D(n, n, n)
	c := StencilCoeffs{C0: 0.4, C1: 0.1}
	Stencil7(dst, src, c, 4)
	for z := 1; z < n-1; z++ {
		for y := 1; y < n-1; y++ {
			for x := 1; x < n-1; x++ {
				want := c.C0*src.At(x, y, z) + c.C1*(src.At(x-1, y, z)+src.At(x+1, y, z)+
					src.At(x, y-1, z)+src.At(x, y+1, z)+src.At(x, y, z-1)+src.At(x, y, z+1))
				if math.Abs(dst.At(x, y, z)-want) > 1e-12 {
					t.Fatalf("(%d,%d,%d): %v, want %v", x, y, z, dst.At(x, y, z), want)
				}
			}
		}
	}
	// Boundaries copy through.
	if dst.At(0, 5, 5) != src.At(0, 5, 5) || dst.At(5, 0, 5) != src.At(5, 0, 5) || dst.At(5, 5, n-1) != src.At(5, 5, n-1) {
		t.Error("boundary not copied")
	}
}

// TestStencilLinearInvariant: a linear field u = ax+by+cz+d is a fixed
// point of the Laplace-Jacobi sweep on the interior.
func TestStencilLinearInvariant(t *testing.T) {
	const n = 8
	src := NewGrid3D(n, n, n)
	src.Fill(func(x, y, z int) float64 { return 2*float64(x) - 3*float64(y) + 0.5*float64(z) + 1 })
	dst := NewGrid3D(n, n, n)
	Stencil7(dst, src, JacobiCoeffs(), 2)
	for z := 1; z < n-1; z++ {
		for y := 1; y < n-1; y++ {
			for x := 1; x < n-1; x++ {
				if math.Abs(dst.At(x, y, z)-src.At(x, y, z)) > 1e-12 {
					t.Fatalf("linear field not invariant at (%d,%d,%d)", x, y, z)
				}
			}
		}
	}
}

// TestStencilJacobiConverges: iterating the Laplace sweep with fixed
// boundaries converges toward the harmonic interior.
func TestStencilJacobiConverges(t *testing.T) {
	const n = 8
	a := NewGrid3D(n, n, n)
	a.Fill(func(x, y, z int) float64 {
		if x == 0 {
			return 1 // one hot face
		}
		return 0
	})
	b := NewGrid3D(n, n, n)
	for it := 0; it < 500; it++ {
		Stencil7(b, a, JacobiCoeffs(), 2)
		a, b = b, a
	}
	mid := a.At(n/2, n/2, n/2)
	if mid <= 0 || mid >= 1 {
		t.Errorf("interior value %v outside (0,1)", mid)
	}
	// Monotone falloff from the hot face along x.
	if !(a.At(1, n/2, n/2) > a.At(3, n/2, n/2) && a.At(3, n/2, n/2) > a.At(5, n/2, n/2)) {
		t.Error("no monotone falloff from the hot boundary")
	}
}

func TestStencilThreadInvariance(t *testing.T) {
	const n = 12
	src := NewGrid3D(n, n, n)
	r := rng.New(9)
	src.Fill(func(x, y, z int) float64 { return r.Float64() })
	d1 := NewGrid3D(n, n, n)
	d8 := NewGrid3D(n, n, n)
	Stencil7(d1, src, JacobiCoeffs(), 1)
	Stencil7(d8, src, JacobiCoeffs(), 8)
	for i := range d1.Data {
		if d1.Data[i] != d8.Data[i] {
			t.Fatal("thread count changed the sweep")
		}
	}
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		r := rng.New(uint64(n))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		want := DFTReference(x, false)
		got := append([]complex128(nil), x...)
		FFT(got, false)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("n=%d bin %d: %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	f := func(seed uint64, szBits uint8) bool {
		n := 1 << (szBits%7 + 1)
		r := rng.New(seed)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		FFT(y, false)
		FFT(y, true)
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFFTParseval: energy is preserved (up to the 1/n convention).
func TestFFTParseval(t *testing.T) {
	const n = 64
	r := rng.New(5)
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
		timeEnergy += real(x[i] * cmplx.Conj(x[i]))
	}
	FFT(x, false)
	var freqEnergy float64
	for i := range x {
		freqEnergy += real(x[i] * cmplx.Conj(x[i]))
	}
	if math.Abs(freqEnergy/float64(n)-timeEnergy) > 1e-9*timeEnergy {
		t.Errorf("Parseval violated: %v vs %v", freqEnergy/float64(n), timeEnergy)
	}
}

func TestFFTImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x, false)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFT3DRoundTripAndPlaneWave(t *testing.T) {
	const n = 8
	c := NewCube(n)
	// A single plane wave concentrates into one bin.
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				theta := 2 * math.Pi * (2*float64(x) + 1*float64(y) + 3*float64(z)) / n
				c.Set(x, y, z, cmplx.Exp(complex(0, theta)))
			}
		}
	}
	orig := append([]complex128(nil), c.Data...)
	c.FFT3D(false, 4)
	total := float64(n * n * n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				want := 0.0
				if x == 2 && y == 1 && z == 3 {
					want = total
				}
				if cmplx.Abs(c.At(x, y, z)-complex(want, 0)) > 1e-7 {
					t.Fatalf("bin (%d,%d,%d) = %v, want %v", x, y, z, c.At(x, y, z), want)
				}
			}
		}
	}
	c.FFT3D(true, 4)
	for i := range orig {
		if cmplx.Abs(c.Data[i]-orig[i]) > 1e-9 {
			t.Fatal("3D round trip failed")
		}
	}
}

func TestFFT3DThreadInvariance(t *testing.T) {
	a := NewCube(8)
	r := rng.New(2)
	for i := range a.Data {
		a.Data[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	b := &Cube{N: 8, Data: append([]complex128(nil), a.Data...)}
	a.FFT3D(false, 1)
	b.FFT3D(false, 8)
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > 1e-10 {
			t.Fatal("thread count changed the transform")
		}
	}
}

// TestOperationalIntensities: the executable kernels' first-principles
// intensities must match what Figure 9 uses.
func TestOperationalIntensities(t *testing.T) {
	ks := roofline.ScientificKernels()
	var stencilRef, fftRef float64
	for _, k := range ks {
		switch k.Name {
		case "Stencil":
			stencilRef = k.OI
		case "3D FFT":
			fftRef = k.OI
		}
	}
	if got := StencilOI(); math.Abs(got-stencilRef) > 0.01 {
		t.Errorf("stencil OI = %v, roofline uses %v", got, stencilRef)
	}
	// The paper-era convention evaluates the FFT at large grids
	// (n = 512 per side).
	if got := FFT3DOI(512); math.Abs(got-fftRef) > 0.35 {
		t.Errorf("3D FFT OI at n=512 = %v, roofline uses %v", got, fftRef)
	}
}

func TestMeasureKernels(t *testing.T) {
	if r := MeasureStencil(32, 0, 2); r.GFs() <= 0 {
		t.Errorf("stencil rate %v", r)
	}
	if r := MeasureFFT3D(16, 0, 2); r.GFs() <= 0 {
		t.Errorf("FFT rate %v", r)
	}
}

func TestKernelPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewGrid3D(2, 8, 8) },
		func() { NewCube(12) },
		func() { FFT(make([]complex128, 3), false) },
		func() { Stencil7(NewGrid3D(4, 4, 4), NewGrid3D(4, 4, 5), JacobiCoeffs(), 1) },
		func() { MeasureStencil(8, 1, 0) },
		func() { MeasureFFT3D(8, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// DFTReference is the O(n^2) direct transform the tests validate FFT
// against.
func DFTReference(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			theta := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * complex(math.Cos(theta), math.Sin(theta))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

// At returns the value at (x, y, z).
func (c *Cube) At(x, y, z int) complex128 { return c.Data[(z*c.N+y)*c.N+x] }

// Set assigns the value at (x, y, z).
func (c *Cube) Set(x, y, z int, v complex128) { c.Data[(z*c.N+y)*c.N+x] = v }

// At returns the value at (x, y, z).
func (g *Grid3D) At(x, y, z int) float64 { return g.Data[(z*g.NY+y)*g.NX+x] }
