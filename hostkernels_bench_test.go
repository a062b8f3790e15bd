package power8

// Host-kernel benchmarks: the real, executable code paths (SpMV,
// Jaccard, Hartree-Fock integrals, the cache/TLB/prefetch simulators)
// measured on the host machine with standard testing.B semantics.

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/hf"
	"repro/internal/jaccard"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/prefetch"
	"repro/internal/rng"
	"repro/internal/spmv"
	"repro/internal/tlb"
	"repro/internal/trace"
)

func BenchmarkHostSpMVCSR(b *testing.B) {
	m := graph.Generate(graph.MatrixProfile{
		Name: "bench", N: 100000, NNZ: 2000000, Kind: graph.KindBanded,
	}, 1)
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(m.NNZ() * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv.CSR(y, m, x, 0)
	}
}

func BenchmarkHostSpMVTwoScan(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(16, 1))
	ts := spmv.NewTwoScan(g, 4096)
	x := make([]float64, ts.Cols)
	y := make([]float64, ts.Rows)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(ts.NNZ() * 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Multiply(y, x, 0)
	}
}

func BenchmarkHostJaccard(b *testing.B) {
	cfg := graph.DefaultRMAT(13, 1)
	cfg.EdgeFactor = 8
	cfg.Undirected = true
	g := graph.RMAT(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := jaccard.AllPairs(g, 0, nil)
		if st.Pairs == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkHostRMATGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.RMAT(graph.DefaultRMAT(14, uint64(i)))
		if g.NNZ() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkHostERIQuartet(b *testing.B) {
	mol := hf.TableV()[3].Scaled(64).Build()
	bs := mol.Basis
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += hf.ERI(bs[i%16], bs[(i+7)%16], bs[(i+3)%16], bs[(i+11)%16])
	}
	_ = sink
}

func BenchmarkHostFockBuild(b *testing.B) {
	mol := hf.TableV()[3].Scaled(48).Build()
	h := mol.CoreHamiltonian()
	d := linalg.NewMatrix(mol.NumFunctions())
	for i := 0; i < d.N; i++ {
		d.Set(i, i, 0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := hf.FockReference(mol, h, d)
		if f.N != d.N {
			b.Fatal("bad Fock")
		}
	}
}

func BenchmarkHostJacobiEigen(b *testing.B) {
	r := rng.New(7)
	m := linalg.NewMatrix(64)
	for i := 0; i < 64; i++ {
		for j := i; j < 64; j++ {
			v := r.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, _ := linalg.JacobiEigen(m)
		if len(vals) != 64 {
			b.Fatal("bad eigen")
		}
	}
}

func BenchmarkSimWalkerSequential(b *testing.B) {
	m := machine.New(arch.E870())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := m.NewWalker(machine.WalkerConfig{})
		w.Run(trace.NewSequential(0, 1<<14), 0)
	}
}

func BenchmarkSimWalkerChase(b *testing.B) {
	m := machine.New(arch.E870())
	ch := trace.NewChase(0, 1<<14, 1, 42)
	w := m.NewWalker(machine.WalkerConfig{DisablePrefetch: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Reset()
		w.Run(ch, 0)
	}
}

func BenchmarkSimTLBTranslate(b *testing.B) {
	x := tlb.New(arch.E870().Xlate, arch.Page64K)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Translate(uint64(i) * 4096)
	}
}

func BenchmarkSimPrefetchEngine(b *testing.B) {
	e := prefetch.New(prefetch.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.OnDemand(uint64(i) * 128)
	}
}

func BenchmarkHostStencil3D(b *testing.B) {
	const n = 128
	interior := int64(n-2) * int64(n-2) * int64(n-2)
	src := kernels.NewGrid3D(n, n, n)
	dst := kernels.NewGrid3D(n, n, n)
	src.Fill(func(x, y, z int) float64 { return float64((x + y + z) % 5) })
	c := kernels.JacobiCoeffs()
	b.SetBytes(interior * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Stencil7(dst, src, c, 0)
		src, dst = dst, src
	}
}

func BenchmarkHostFFT3D(b *testing.B) {
	const n = 64
	c := kernels.NewCube(n)
	for i := range c.Data {
		c.Data[i] = complex(float64(i%13), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FFT3D(false, 0)
	}
}

func BenchmarkHostPageRank(b *testing.B) {
	g := graph.RMAT(graph.DefaultRMAT(14, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, iters := spmv.PageRank(g, 0.85, 1e-8, 100, 0); iters == 0 {
			b.Fatal("no iterations")
		}
	}
}

func BenchmarkSimRNG(b *testing.B) {
	r := rng.New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
