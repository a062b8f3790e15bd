package graph

import (
	"fmt"
	"math"
	"testing"
)

// streamedMoments sums the degree sequence RMATDegrees streams.
func streamedMoments(t *testing.T, cfg RMATConfig) (sum int64, sumSq float64) {
	t.Helper()
	deg, err := RMATDegrees(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deg {
		sum += int64(d)
		sumSq += float64(d) * float64(d)
	}
	return sum, sumSq
}

// TestRMATDegreeMomentsMatchStream holds the closed form to the streamed
// degree sequence at the Figure 10 configuration (EdgeFactor 8, NoSelf),
// scales 12-19 × seeds 1-4. Σd is 2E exactly. Σd² is one draw around
// its expectation. Its measured relative scatter, max over seeds 1-4 per
// scale, is
//
//	s12 1.81%  s13 1.10%  s14 0.84%  s15 0.63%
//	s16 1.03%  s17 0.77%  s18 0.37%  s19 0.35%
//
// and over seeds 1-4 at s20 0.21% and at s21 0.14%, too slow to keep
// here. The error shrinks with scale, as the heaviest vertices' share of
// Σd² does. The bound is 1.5× the largest, 2.7%. Self loops are rare
// at these scales and the Graph500 source and destination marginals are
// equal; TestRMATDegreeMomentsMeanOfDraws checks the closed form where
// neither holds.
func TestRMATDegreeMomentsMatchStream(t *testing.T) {
	const bound = 0.027
	for s := 12; s <= 19; s++ {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg := DefaultRMAT(s, seed)
			cfg.EdgeFactor = 8
			t.Run(fmt.Sprintf("s%d/seed%d", s, seed), func(t *testing.T) {
				t.Parallel()
				mom, err := RMATDegreeMoments(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sum, sumSq := streamedMoments(t, cfg)
				if want := 2 * cfg.Edges(); sum != want || mom.Sum != float64(want) {
					t.Errorf("Σd: streamed %d, closed form %v, want 2E = %d", sum, mom.Sum, want)
				}
				rel := mom.SumSq/sumSq - 1
				t.Logf("Σd²: closed form %.6g, streamed %.6g (%+.2f%%)", mom.SumSq, sumSq, 100*rel)
				if math.Abs(rel) > bound {
					t.Errorf("Σd²: closed form %.6g vs streamed %.6g: %+.2f%%, bound ±%.1f%%",
						mom.SumSq, sumSq, 100*rel, 100*bound)
				}
			})
		}
	}
}

// TestRMATDegreeMomentsMeanOfDraws checks the closed form where self
// loops and the asymmetry between source and destination matter: at
// scale 3 a quarter of the Graph500 draws are self loops. The mean of
// Σd² over many seeds must sit within four standard errors, measured
// from the same draws, of the closed form.
func TestRMATDegreeMomentsMeanOfDraws(t *testing.T) {
	const draws = 4000
	params := [][4]float64{{0.57, 0.19, 0.19, 0.05}, {0.45, 0.30, 0.10, 0.15}}
	for _, p := range params {
		for _, noSelf := range []bool{true, false} {
			cfg := RMATConfig{Scale: 3, EdgeFactor: 8, A: p[0], B: p[1], C: p[2], D: p[3], NoSelf: noSelf}
			mom, err := RMATDegreeMoments(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var mean, m2 float64 // Welford
			for n := 1; n <= draws; n++ {
				cfg.Seed = uint64(n)
				sum, sumSq := streamedMoments(t, cfg)
				if float64(sum) != mom.Sum {
					t.Fatalf("%v noSelf %v seed %d: Σd = %d, closed form %v", p, noSelf, n, sum, mom.Sum)
				}
				d := sumSq - mean
				mean += d / float64(n)
				m2 += d * (sumSq - mean)
			}
			stderr := math.Sqrt(m2/(draws-1)) / math.Sqrt(draws)
			if dev := mean - mom.SumSq; math.Abs(dev) > 4*stderr {
				t.Errorf("%v noSelf %v: mean Σd² %.2f over %d draws, closed form %.2f (%.1f standard errors)",
					p, noSelf, mean, draws, mom.SumSq, dev/stderr)
			}
		}
	}
}

func TestRMATDegreeMomentsRejects(t *testing.T) {
	bad := DefaultRMAT(0, 1)
	if _, err := RMATDegreeMoments(bad); err == nil {
		t.Error("scale 0 accepted")
	}
	loops := RMATConfig{Scale: 4, EdgeFactor: 8, A: 0.5, D: 0.5, NoSelf: true}
	if _, err := RMATDegreeMoments(loops); err == nil {
		t.Error("NoSelf with a+d = 1 accepted: every draw is a self loop")
	}
	loops.NoSelf = false
	mom, err := RMATDegreeMoments(loops)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge is a self loop: d_u = 2·(loops at u), and the loops at
	// u are binomial in E with p_u = Π_bits (½).
	e, v := float64(loops.Edges()), float64(loops.Vertices())
	want := 4 * (e + e*(e-1)/v)
	if math.Abs(mom.SumSq/want-1) > 1e-12 {
		t.Errorf("all-loop Σd² = %v, want %v", mom.SumSq, want)
	}
}
