package timeseries

import (
	"math"
	"testing"
)

func TestPolyFitExactLine(t *testing.T) {
	x := Series{0, 1, 2, 3, 4}
	y := Series{1, 3, 5, 7, 9} // y = 1 + 2x
	c, err := PolyFit(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c[0], 1, 1e-9) || !almostEqual(c[1], 2, 1e-9) {
		t.Errorf("coeffs = %v, want [1 2]", c)
	}
}

func TestPolyFitQuadratic(t *testing.T) {
	x := make(Series, 20)
	y := make(Series, 20)
	for i := range x {
		xv := float64(i) / 2
		x[i] = xv
		y[i] = 2 - 3*xv + 0.5*xv*xv
	}
	c, err := PolyFit(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -3, 0.5}
	for i := range want {
		if !almostEqual(c[i], want[i], 1e-6) {
			t.Errorf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestPolyFitDegreeZero(t *testing.T) {
	x := Series{1, 2, 3, 4}
	y := Series{5, 7, 9, 11}
	c, err := PolyFit(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c[0], 8, 1e-9) {
		t.Errorf("constant fit = %v, want mean 8", c[0])
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit(Series{1}, Series{1, 2}, 1); err != ErrLengthMismatch {
		t.Errorf("mismatch error = %v", err)
	}
	if _, err := PolyFit(Series{1, 2}, Series{1, 2}, -1); err == nil {
		t.Error("negative degree should error")
	}
	if _, err := PolyFit(Series{1}, Series{1}, 3); err == nil {
		t.Error("under-determined fit should error")
	}
	// Identical x values make the system singular for degree ≥ 1.
	if _, err := PolyFit(Series{2, 2, 2}, Series{1, 2, 3}, 1); err != ErrSingular {
		t.Errorf("singular error = %v, want ErrSingular", err)
	}
}

func TestPolyFitResidualsSmallOnNoisyLine(t *testing.T) {
	// A noisy line should still produce a fit whose residual RMS is of
	// the order of the injected noise, not larger.
	x := make(Series, 100)
	y := make(Series, 100)
	for i := range x {
		x[i] = float64(i)
		noise := 0.5 * math.Sin(float64(i)*1.7)
		y[i] = 4 + 0.25*x[i] + noise
	}
	c, err := PolyFit(x, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rss float64
	for i := range x {
		d := y[i] - (c[0] + c[1]*x[i])
		rss += d * d
	}
	rms := math.Sqrt(rss / float64(len(x)))
	if rms > 1 {
		t.Errorf("residual RMS = %v, want ≤ 1", rms)
	}
}
