package graph

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// RMATConfig parameterizes the recursive-matrix graph generator. The
// paper's experiments use Graph500 parameters (a=0.57, b=0.19, c=0.19,
// d=0.05) with an average degree of 16 (EdgeFactor 16 for directed use,
// or 8 mirrored edges for undirected).
type RMATConfig struct {
	Scale      int // 2^Scale vertices
	EdgeFactor int // generated edges per vertex
	A, B, C, D float64
	Seed       uint64
	Undirected bool // mirror each edge
	NoSelf     bool // drop self loops
}

// DefaultRMAT returns the Graph500 parameter set at the given scale with
// average degree 16, matching the paper's Jaccard and SpMV workloads.
func DefaultRMAT(scale int, seed uint64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFactor: 16,
		A: 0.57, B: 0.19, C: 0.19, D: 0.05,
		Seed: seed, NoSelf: true,
	}
}

// Validate checks the configuration.
func (c RMATConfig) Validate() error {
	if c.Scale < 1 || c.Scale > 31 {
		return fmt.Errorf("graph: R-MAT scale %d out of [1,31]", c.Scale)
	}
	if c.EdgeFactor < 1 {
		return fmt.Errorf("graph: edge factor %d < 1", c.EdgeFactor)
	}
	sum := c.A + c.B + c.C + c.D
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("graph: R-MAT probabilities sum to %g", sum)
	}
	return nil
}

// Vertices returns the vertex count 2^Scale.
func (c RMATConfig) Vertices() int { return 1 << c.Scale }

// Edges returns the number of generated edges before mirroring/dedup.
func (c RMATConfig) Edges() int64 { return int64(c.Vertices()) * int64(c.EdgeFactor) }

// RMATEdges generates the raw edge list. It returns the configuration
// error, if any, instead of panicking, so CLI callers can report bad
// flags gracefully.
func RMATEdges(cfg RMATConfig) (src, dst []int32, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	g := newRMATGen(cfg)
	n := cfg.Edges()
	src = make([]int32, 0, n)
	dst = make([]int32, 0, n)
	for e := int64(0); e < n; e++ {
		i, j := g.edge()
		src = append(src, i)
		dst = append(dst, j)
	}
	return src, dst, nil
}

// RMATDegrees streams the generator and returns only the per-vertex
// degree counts of the undirected multigraph (each generated edge
// contributes to both endpoints), without materializing the edge list.
// This is what lets the Figure 10 projection reach paper scales: the
// degree array for scale s costs 4 * 2^s bytes while the edge list would
// cost 8 * 16 * 2^s. Like RMATEdges it returns the configuration error
// instead of panicking.
func RMATDegrees(cfg RMATConfig) ([]int32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	deg := make([]int32, cfg.Vertices())
	g := newRMATGen(cfg)
	n := cfg.Edges()
	for e := int64(0); e < n; e++ {
		i, j := g.edge()
		deg[i]++
		deg[j]++
	}
	return deg, nil
}

// RMATMoments are the first two moments of the degree sequence
// RMATDegrees counts, in which every generated edge adds one to the
// degree of each endpoint.
type RMATMoments struct {
	Sum   float64 // Σ_u d_u: exactly 2E
	SumSq float64 // Σ_u d_u², its expectation over the generator's draws
}

// RMATDegreeMoments returns the moments of the degree sequence
// RMATDegrees would stream, in closed form: no edge is drawn, and the
// seed does not enter.
//
// Each R-MAT level picks its quadrant independently (Chakrabarti, Zhan
// and Faloutsos, SDM 2004), so an endpoint's probability of landing on
// vertex u is a product over u's bits of a per-bit marginal: source
// (a+b, c+d), destination (a+c, b+d), and both at once, a self loop,
// (a, d). A sum over u of the product of two such marginals f and g is
// then (f0·g0 + f1·g1)^s. Edge e adds X_e(u) = [src=u] + [dst=u] to
// d_u, and the E edges are drawn independently, so
//
//	E[Σ_u d_u²] = E·E[Σ_u X_e(u)²] + E(E−1)·Σ_u (P_src(u) + P_dst(u))²,
//
// where Σ_u X_e(u)² is 2, or 4 for a self loop. NoSelf redraws self
// loops, which occur with probability S = (a+d)^s: each marginal is
// conditioned to P' = (P − P_self)/(1−S) and the first term is 2E.
// The probabilities are the generator's own, read from its draw
// thresholds. With NoSelf and S = 1 every draw is a self loop, which
// the generator would redraw forever; that configuration is an error.
func RMATDegreeMoments(cfg RMATConfig) (RMATMoments, error) {
	if err := cfg.Validate(); err != nil {
		return RMATMoments{}, err
	}
	const one = 1 << 53
	t := rmatThresholds(cfg)
	a, b := float64(t[0])/one, float64(t[1]-t[0])/one
	c, d := float64(t[2]-t[1])/one, float64(one-t[2])/one
	src, dst, self := [2]float64{a + b, c + d}, [2]float64{a + c, b + d}, [2]float64{a, d}
	sum := func(f, g [2]float64) float64 { return math.Pow(f[0]*g[0]+f[1]*g[1], float64(cfg.Scale)) }

	loops := sum(self, [2]float64{1, 1})
	spread := sum(src, src) + 2*sum(src, dst) + sum(dst, dst) // Σ_u (P_src + P_dst)²
	perEdge := 2 + 2*loops
	if cfg.NoSelf {
		if loops >= 1 {
			return RMATMoments{}, fmt.Errorf("graph: R-MAT with a+d = 1 draws only self loops, which NoSelf cannot redraw")
		}
		// Σ_u (P_src + P_dst − 2 P_self)², over the conditioning (1−S)².
		spread += 4*sum(self, self) - 4*sum(src, self) - 4*sum(dst, self)
		spread /= (1 - loops) * (1 - loops)
		perEdge = 2
	}
	e := float64(cfg.Edges())
	return RMATMoments{Sum: 2 * e, SumSq: e*perEdge + e*(e-1)*spread}, nil
}

// rmatGen draws R-MAT edges by recursive quadrant descent, one 53-bit
// draw per level. Each draw k = Uint64()>>11 is the numerator of the
// uniform variate k/2^53, so comparing it against the integer threshold
// ceil(p*2^53) is exactly the float comparison k/2^53 < p: both k and
// p*2^53 are exact in float64, and an integer is below a real number
// exactly when it is below that number's ceiling.
type rmatGen struct {
	r      *rng.Rand
	scale  int
	noSelf bool
	// t holds the thresholds for A, A+B and A+B+C, made non-decreasing
	// so that the count of thresholds a draw reaches is the quadrant
	// the first-match comparison chain would pick.
	t [3]uint64
}

func newRMATGen(cfg RMATConfig) *rmatGen {
	return &rmatGen{r: rng.New(cfg.Seed), scale: cfg.Scale, noSelf: cfg.NoSelf, t: rmatThresholds(cfg)}
}

// rmatThresholds returns the draw thresholds for A, A+B and A+B+C, made
// non-decreasing. They alone set the quadrant probabilities: D is what
// the draws above the last threshold leave.
func rmatThresholds(cfg RMATConfig) [3]uint64 {
	ab := cfg.A + cfg.B
	abc := ab + cfg.C
	var t [3]uint64
	for q, p := range [3]float64{cfg.A, ab, abc} {
		t[q] = rmatThreshold(p)
		if q > 0 && t[q] < t[q-1] {
			t[q] = t[q-1]
		}
	}
	return t
}

// rmatThreshold returns the smallest k with k/2^53 >= p, capped at 2^53:
// the 53-bit draws below it are exactly those that fall under p.
func rmatThreshold(p float64) uint64 {
	switch {
	case !(p > 0): // also NaN, which no draw falls under
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// edge draws one edge, redrawing self loops when NoSelf is set.
func (g *rmatGen) edge() (int32, int32) {
	for {
		i, j := g.draw()
		if !g.noSelf || i != j {
			return i, j
		}
	}
}

// draw descends the quadrants without branching on the draws: q is the
// number of thresholds reached (0 = top-left, 1 = top-right,
// 2 = bottom-left, 3 = bottom-right), whose high bit sets the row bit
// and low bit the column bit.
func (g *rmatGen) draw() (int32, int32) {
	var i, j int32
	for bit := 0; bit < g.scale; bit++ {
		q := g.quadrant(g.r.Uint64() >> 11)
		i |= (q >> 1) << bit
		j |= (q & 1) << bit
	}
	return i, j
}

// quadrant counts the thresholds a 53-bit draw k reaches. (k-t)>>63 is 1
// exactly when k < t, as both are below 2^63.
func (g *rmatGen) quadrant(k uint64) int32 {
	return 3 - int32((k-g.t[0])>>63+(k-g.t[1])>>63+(k-g.t[2])>>63)
}

// RMAT generates the graph and assembles it into a deduplicated CSR
// adjacency matrix (values all 1). With Undirected set, each edge is
// mirrored before assembly, producing a symmetric matrix. It keeps the
// panic-on-invalid-config contract for the model code paths that build
// graphs from programmatic configurations; CLIs validate first.
func RMAT(cfg RMATConfig) *CSR {
	src, dst, err := RMATEdges(cfg)
	if err != nil {
		panic(err)
	}
	n := cfg.Vertices()
	coo := &COO{Rows: n, Cols: n}
	if cfg.Undirected {
		coo.I = make([]int32, 0, 2*len(src))
		coo.J = make([]int32, 0, 2*len(src))
		coo.I = append(coo.I, src...)
		coo.J = append(coo.J, dst...)
		coo.I = append(coo.I, dst...)
		coo.J = append(coo.J, src...)
	} else {
		coo.I, coo.J = src, dst
	}
	m := FromCOO(coo)
	// Deduplicated values accumulate; reset to 1 to represent adjacency.
	for k := range m.Vals {
		m.Vals[k] = 1
	}
	return m
}
