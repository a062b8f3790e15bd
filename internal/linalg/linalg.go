// Package linalg provides the dense linear algebra the Hartree-Fock
// application needs: row-major square matrices, parallel blocked matrix
// multiply, a cyclic Jacobi eigensolver for symmetric matrices, Löwdin
// symmetric orthogonalization (S^-1/2) and the density-matrix
// construction used in the SCF "Density" stage of Table VI.
package linalg

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/parallel"
)

// Matrix is a dense square matrix in row-major order.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix returns a zero n x n matrix.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimension %d", n))
	}
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add accumulates into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.N)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			t.Data[j*m.N+i] = m.Data[i*m.N+j]
		}
	}
	return t
}

// Trace returns the trace.
func (m *Matrix) Trace() float64 {
	var t float64
	for i := 0; i < m.N; i++ {
		t += m.Data[i*m.N+i]
	}
	return t
}

// MaxAbsDiff returns max |a-b| elementwise; the SCF convergence check.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.N != b.N {
		panic("linalg: dimension mismatch")
	}
	var d float64
	for k := range a.Data {
		if v := math.Abs(a.Data[k] - b.Data[k]); v > d {
			d = v
		}
	}
	return d
}

// SymmetryError returns max |m - m^T| elementwise.
func (m *Matrix) SymmetryError() float64 {
	var d float64
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			if v := math.Abs(m.At(i, j) - m.At(j, i)); v > d {
				d = v
			}
		}
	}
	return d
}

// MatMul computes C = A * B with row-parallel inner kernels. A, B and C
// must share dimensions; C must not alias A or B.
func MatMul(c, a, b *Matrix) {
	n := a.N
	if b.N != n || c.N != n {
		panic("linalg: dimension mismatch")
	}
	workers := parallel.Workers(0)
	var wg sync.WaitGroup
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				ci := c.Data[i*n : (i+1)*n]
				for j := range ci {
					ci[j] = 0
				}
				for k := 0; k < n; k++ {
					aik := a.Data[i*n+k]
					if aik == 0 {
						continue
					}
					bk := b.Data[k*n : (k+1)*n]
					for j, bkj := range bk {
						ci[j] += aik * bkj
					}
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()
}

// JacobiEigen diagonalizes a symmetric matrix with the cyclic Jacobi
// method, returning eigenvalues in ascending order and the corresponding
// eigenvectors as the columns of the returned matrix. The input is not
// modified. It panics if the matrix is visibly asymmetric.
func JacobiEigen(m *Matrix) ([]float64, *Matrix) {
	if m.SymmetryError() > 1e-8 {
		panic("linalg: JacobiEigen requires a symmetric matrix")
	}
	n := m.N
	a := m.Clone()
	v := NewMatrix(n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(a)
		if off < 1e-12 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-14 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				cos := 1 / math.Sqrt(t*t+1)
				sin := t * cos
				rotate(a, v, p, q, cos, sin)
			}
		}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = a.At(i, i)
	}
	// Sort ascending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort keeps it simple and stable
		for j := i; j > 0 && vals[idx[j]] < vals[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n)
	for outCol, col := range idx {
		sortedVals[outCol] = vals[col]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, outCol, v.At(r, col))
		}
	}
	return sortedVals, sortedVecs
}

// rotate applies the Jacobi rotation to a and accumulates it into v.
func rotate(a, v *Matrix, p, q int, c, s float64) {
	n := a.N
	for k := 0; k < n; k++ {
		akp, akq := a.At(k, p), a.At(k, q)
		a.Set(k, p, c*akp-s*akq)
		a.Set(k, q, s*akp+c*akq)
	}
	for k := 0; k < n; k++ {
		apk, aqk := a.At(p, k), a.At(q, k)
		a.Set(p, k, c*apk-s*aqk)
		a.Set(q, k, s*apk+c*aqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

func offDiagNorm(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.N; i++ {
		for j := i + 1; j < a.N; j++ {
			s += a.At(i, j) * a.At(i, j)
		}
	}
	return math.Sqrt(2 * s)
}

// SymInvSqrt returns S^(-1/2) via eigendecomposition — Löwdin symmetric
// orthogonalization. It panics on non-positive eigenvalues (a linearly
// dependent basis).
func SymInvSqrt(s *Matrix) *Matrix {
	vals, vecs := JacobiEigen(s)
	n := s.N
	scaled := NewMatrix(n)
	for col := 0; col < n; col++ {
		if vals[col] <= 1e-10 {
			panic(fmt.Sprintf("linalg: SymInvSqrt with eigenvalue %g (linearly dependent basis)", vals[col]))
		}
		inv := 1 / math.Sqrt(vals[col])
		for r := 0; r < n; r++ {
			scaled.Set(r, col, vecs.At(r, col)*inv)
		}
	}
	out := NewMatrix(n)
	MatMul(out, scaled, vecs.Transpose())
	return out
}

// DensityFromOrbitals builds the closed-shell density matrix
// D = C_occ C_occ^T from the lowest nOcc orbital columns of c.
func DensityFromOrbitals(c *Matrix, nOcc int) *Matrix {
	if nOcc < 0 || nOcc > c.N {
		panic(fmt.Sprintf("linalg: nOcc %d out of range", nOcc))
	}
	n := c.N
	d := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < nOcc; k++ {
				s += c.At(i, k) * c.At(j, k)
			}
			d.Set(i, j, s)
		}
	}
	return d
}
