// Package stats provides the small numeric toolkit the machine model
// and its checks need: piecewise-linear curves for calibrated
// efficiency profiles, and a relative-tolerance comparison.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Curve is a piecewise-linear function defined by sorted breakpoints. The
// machine model uses curves for calibrated efficiency profiles: the
// breakpoints are measurement anchors, and queries interpolate between
// them. Outside the breakpoint range the curve is clamped to the endpoint
// values (efficiencies do not extrapolate).
type Curve struct {
	xs, ys []float64
}

// NewCurve builds a curve from breakpoint pairs. xs must be strictly
// increasing and the same length as ys; NewCurve panics otherwise so that
// malformed calibration tables fail loudly at construction.
func NewCurve(xs, ys []float64) *Curve {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("stats: NewCurve needs equal-length, non-empty breakpoints")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			panic(fmt.Sprintf("stats: NewCurve xs not strictly increasing at %d", i))
		}
	}
	return &Curve{xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)}
}

// Points returns copies of the curve's breakpoints in x order —
// the canonical form internal/canon hashes into calibration
// fingerprints.
func (c *Curve) Points() (xs, ys []float64) {
	return append([]float64(nil), c.xs...), append([]float64(nil), c.ys...)
}

// At evaluates the curve at x with clamping at both ends.
func (c *Curve) At(x float64) float64 {
	n := len(c.xs)
	if x <= c.xs[0] {
		return c.ys[0]
	}
	if x >= c.xs[n-1] {
		return c.ys[n-1]
	}
	i := sort.SearchFloat64s(c.xs, x)
	// xs[i-1] < x <= xs[i] after the boundary checks above.
	x0, x1 := c.xs[i-1], c.xs[i]
	y0, y1 := c.ys[i-1], c.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Within reports whether got is within frac (e.g. 0.1 = 10%) of want.
// It treats want == 0 specially, requiring got == 0.
func Within(got, want, frac float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= math.Abs(want)*frac
}
