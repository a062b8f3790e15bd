package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCurveInterpolation(t *testing.T) {
	c := NewCurve([]float64{0, 1, 2}, []float64{10, 20, 40})
	cases := []struct{ x, want float64 }{
		{-1, 10},  // clamp low
		{0, 10},   // endpoint
		{0.5, 15}, // interpolate
		{1, 20},   // breakpoint
		{1.5, 30}, // interpolate second segment
		{2, 40},   // endpoint
		{5, 40},   // clamp high
	}
	for _, k := range cases {
		if got := c.At(k.x); math.Abs(got-k.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", k.x, got, k.want)
		}
	}
}

func TestCurveMonotoneBetweenAnchors(t *testing.T) {
	// Property: a curve built from increasing ys is monotone everywhere.
	c := NewCurve([]float64{0, 0.5, 1}, []float64{1, 2, 3})
	f := func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 1))
		y := math.Abs(math.Mod(b, 1))
		if x > y {
			x, y = y, x
		}
		return c.At(x) <= c.At(y)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCurveRejectsBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { NewCurve(nil, nil) },
		func() { NewCurve([]float64{1, 1}, []float64{2, 3}) },
		func() { NewCurve([]float64{2, 1}, []float64{2, 3}) },
		func() { NewCurve([]float64{1}, []float64{2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad curve construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestWithin(t *testing.T) {
	if !Within(105, 100, 0.05) {
		t.Error("105 should be within 5% of 100")
	}
	if Within(106, 100, 0.05) {
		t.Error("106 should not be within 5% of 100")
	}
	if !Within(0, 0, 0.1) || Within(1, 0, 0.1) {
		t.Error("zero-want handling wrong")
	}
}
