package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical draws of 100", same)
	}
}

func TestIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(7)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4242)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31337)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestShuffleUniformish(t *testing.T) {
	// Each position should receive each value with roughly equal
	// frequency over many shuffles.
	const n, trials = 4, 40000
	counts := [n][n]int{}
	r := New(5)
	for trial := 0; trial < trials; trial++ {
		vals := [n]int{0, 1, 2, 3}
		r.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for pos, v := range vals {
			counts[pos][v]++
		}
	}
	want := float64(trials) / n
	for pos := 0; pos < n; pos++ {
		for v := 0; v < n; v++ {
			got := float64(counts[pos][v])
			if math.Abs(got-want)/want > 0.05 {
				t.Errorf("position %d value %d: count %v, want ~%v", pos, v, got, want)
			}
		}
	}
}
