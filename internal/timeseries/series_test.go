package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSumMeanVarStd(t *testing.T) {
	tests := []struct {
		name string
		s    Series
		sum  float64
		mean float64
		vari float64
	}{
		{"empty", Series{}, 0, 0, 0},
		{"single", Series{4}, 4, 4, 0},
		{"constant", Series{2, 2, 2, 2}, 8, 2, 0},
		{"simple", Series{1, 2, 3, 4}, 10, 2.5, 1.25},
		{"negative", Series{-1, 1}, 0, 0, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Sum(); !almostEqual(got, tc.sum, 1e-12) {
				t.Errorf("Sum = %v, want %v", got, tc.sum)
			}
			if got := tc.s.Mean(); !almostEqual(got, tc.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tc.mean)
			}
			if got := tc.s.Var(); !almostEqual(got, tc.vari, 1e-12) {
				t.Errorf("Var = %v, want %v", got, tc.vari)
			}
			if got := tc.s.Std(); !almostEqual(got, math.Sqrt(tc.vari), 1e-12) {
				t.Errorf("Std = %v, want %v", got, math.Sqrt(tc.vari))
			}
		})
	}
}

func TestMinMaxExtremes(t *testing.T) {
	s := Series{3, -2, 7, 0}
	if s.Min() != -2 {
		t.Errorf("Min = %v, want -2", s.Min())
	}
	if s.Max() != 7 {
		t.Errorf("Max = %v, want 7", s.Max())
	}
	empty := Series{}
	if !math.IsInf(empty.Min(), 1) || !math.IsInf(empty.Max(), -1) {
		t.Errorf("empty Min/Max = %v/%v, want +Inf/-Inf", empty.Min(), empty.Max())
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Series{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestAdd(t *testing.T) {
	a := Series{1, 2, 3}
	b := Series{10, 20, 30}
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	want := Series{11, 22, 33}
	for i := range want {
		if sum[i] != want[i] {
			t.Errorf("Add[%d] = %v, want %v", i, sum[i], want[i])
		}
	}
	if a[0] != 1 {
		t.Error("Add mutated receiver")
	}
	if _, err := a.Add(Series{1}); err != ErrLengthMismatch {
		t.Errorf("Add length mismatch error = %v", err)
	}
}

// DivInto writes the element-wise ratio s/t into dst, all three of one
// length. Positions where t is zero yield zero rather than Inf/NaN: in PinSQL
// the denominator is the instance active session, and an idle second
// contributes no impact signal (§V, scale-trend-level). It is the division
// CorrRatio fuses into its passes, kept as the oracle's (divCorr).
func (s Series) DivInto(dst, t Series) error {
	if len(s) != len(t) || len(s) != len(dst) {
		return ErrLengthMismatch
	}
	for i := range s {
		dst[i] = 0
		if t[i] != 0 {
			dst[i] = s[i] / t[i]
		}
	}
	return nil
}

func TestDivZeroDenominator(t *testing.T) {
	num := Series{4, 6, 8}
	den := Series{2, 0, 4}
	got := make(Series, 3)
	if err := num.DivInto(got, den); err != nil {
		t.Fatal(err)
	}
	want := Series{2, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Div[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSliceClamping(t *testing.T) {
	s := Series{0, 1, 2, 3, 4}
	tests := []struct {
		lo, hi int
		want   int
	}{
		{-5, 3, 3},
		{2, 100, 3},
		{4, 2, 0},
		{0, 5, 5},
		{5, 5, 0},
	}
	for _, tc := range tests {
		if got := len(s.Slice(tc.lo, tc.hi)); got != tc.want {
			t.Errorf("Slice(%d,%d) len = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestQuantileMedian(t *testing.T) {
	s := Series{1, 3, 2, 4}
	if got := s.Median(); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median = %v, want 2.5", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 4 {
		t.Errorf("Q1 = %v, want 4", got)
	}
	if got := (Series{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	// Quantile must not reorder the receiver.
	if s[0] != 1 || s[1] != 3 {
		t.Error("Quantile mutated receiver order")
	}
}

func TestMAD(t *testing.T) {
	s := Series{1, 1, 2, 2, 4, 6, 9}
	// median = 2; |x-2| = {1,1,0,0,2,4,7}; median of that = 1.
	if got := s.MAD(); !almostEqual(got, 1, 1e-12) {
		t.Errorf("MAD = %v, want 1", got)
	}
	if got := (Series{}).MAD(); got != 0 {
		t.Errorf("empty MAD = %v, want 0", got)
	}
}

func TestDownsample(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	got := s.DownsampleInto(nil, 2)
	want := Series{3, 7, 5}
	if len(got) != len(want) {
		t.Fatalf("Downsample len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Downsample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	same := s.DownsampleInto(nil, 1)
	if len(same) != len(s) {
		t.Error("Downsample(1) should preserve length")
	}
	same[0] = 42
	if s[0] == 42 {
		t.Error("Downsample(1) must copy, not alias")
	}
}

func TestMinMaxNormalization(t *testing.T) {
	s := Series{2, 4, 6}
	got := s.MinMax()
	want := Series{0, 0.5, 1}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("MinMax[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	flat := (Series{5, 5, 5}).MinMax()
	for i, v := range flat {
		if v != 0 {
			t.Errorf("constant MinMax[%d] = %v, want 0", i, v)
		}
	}
}

func TestMSE(t *testing.T) {
	a := Series{1, 2, 3}
	b := Series{1, 4, 3}
	got, err := MSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 4.0/3.0, 1e-12) {
		t.Errorf("MSE = %v, want 4/3", got)
	}
	if _, err := MSE(a, Series{1}); err != ErrLengthMismatch {
		t.Errorf("MSE mismatch error = %v", err)
	}
	if v, err := MSE(Series{}, Series{}); err != nil || v != 0 {
		t.Errorf("empty MSE = %v, %v", v, err)
	}
}

// Property: MinMax output always lies in [0, 1].
func TestMinMaxRangeProperty(t *testing.T) {
	f := func(vals []float64) bool {
		s := sanitize(vals)
		for _, v := range s.MinMax() {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: Downsample preserves the total sum.
func TestDownsampleSumProperty(t *testing.T) {
	f := func(vals []float64, factor uint8) bool {
		s := sanitize(vals)
		fac := int(factor%7) + 1
		return almostEqual(s.DownsampleInto(nil, fac).Sum(), s.Sum(), 1e-6*(1+math.Abs(s.Sum())))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: quantile is monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		s := sanitize(vals)
		if len(s) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)+1e-9
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// sanitize maps arbitrary quick-generated floats into finite, moderate
// values so properties are not dominated by Inf/NaN inputs.
func sanitize(vals []float64) Series {
	out := make(Series, 0, len(vals))
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, math.Mod(v, 1e6))
	}
	return out
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(42))}
}
