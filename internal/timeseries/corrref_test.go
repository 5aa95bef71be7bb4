package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sameResult reports whether two (correlation, error) results are the same
// down to the float's bits.
func sameResult(a float64, aerr error, b float64, berr error) bool {
	return math.Float64bits(a) == math.Float64bits(b) && aerr == berr
}

// divCorr is Corr(x/y, y) as it is written without a prepared reference:
// divide, then correlate.
func divCorr(x, y Series) (float64, error) {
	ratio := make(Series, len(x))
	if err := x.DivInto(ratio, y); err != nil {
		return 0, err
	}
	return Corr(ratio, y)
}

// checkRefs holds the three prepared scores of x against (y, w) to the
// functions they stand for.
func checkRefs(t *testing.T, label string, x, y, w Series) {
	t.Helper()
	got, gerr := NewCorrRef(y).Corr(x)
	want, werr := Corr(x, y)
	if !sameResult(got, gerr, want, werr) {
		t.Errorf("%s: CorrRef.Corr = %v, %v; Corr = %v, %v", label, got, gerr, want, werr)
	}
	got, gerr = NewWeightedCorrRef(y, w).Corr(x)
	want, werr = WeightedCorr(x, y, w)
	if !sameResult(got, gerr, want, werr) {
		t.Errorf("%s: WeightedCorrRef.Corr = %v, %v; WeightedCorr = %v, %v", label, got, gerr, want, werr)
	}
	got, gerr = NewCorrRef(y).CorrRatio(x, make(Series, len(y)))
	want, werr = divCorr(x, y)
	if len(x) != len(y) {
		want, werr = 0, ErrLengthMismatch
	}
	if !sameResult(got, gerr, want, werr) {
		t.Errorf("%s: CorrRef.CorrRatio = %v, %v; Corr(x/y, y) = %v, %v", label, got, gerr, want, werr)
	}
}

// TestCorrRefMatchesCorrBitForBit: a prepared reference returns exactly what
// Corr, WeightedCorr and Corr-of-the-ratio return — on random series, and on
// the inputs where a shortcut would show: NaN and ±Inf on either side,
// all-zero and negative weights, constant series, zeros in the denominator,
// empty series and every length mismatch.
func TestCorrRefMatchesCorrBitForBit(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40)
		x, y, w := make(Series, n), make(Series, n), make(Series, n)
		for i := range x {
			x[i], y[i], w[i] = rng.NormFloat64()*10, rng.NormFloat64()*3+5, rng.Float64()
			if rng.Intn(8) == 0 {
				y[i] = 0
			}
		}
		checkRefs(t, "random", x, y, w)
		// One reference, many x: nothing of one call may leak into the next.
		ref, wref := NewCorrRef(y), NewWeightedCorrRef(y, w)
		scratch := make(Series, n)
		for k := 0; k < 3; k++ {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got, _ := ref.Corr(x)
			want, _ := Corr(x, y)
			gotW, _ := wref.Corr(x)
			wantW, _ := WeightedCorr(x, y, w)
			gotR, _ := ref.CorrRatio(x, scratch)
			wantR, _ := divCorr(x, y)
			if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(gotW) != math.Float64bits(wantW) ||
				math.Float64bits(gotR) != math.Float64bits(wantR) {
				return false
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	nan, inf := math.NaN(), math.Inf(1)
	base := Series{1, 4, 2, 8, 5, 7}
	ones := Series{1, 1, 1, 1, 1, 1}
	cases := []struct {
		label   string
		x, y, w Series
	}{
		{"empty", Series{}, Series{}, Series{}},
		{"nil weights on empty", Series{}, Series{}, nil},
		{"x shorter", base[:5], base, ones},
		{"x longer", append(base.Clone(), 1), base, ones},
		{"w shorter", base, base, ones[:5]},
		{"w nil", base, base, nil},
		{"w longer, y empty", Series{}, Series{}, ones},
		{"NaN in x", Series{1, nan, 2, 8, 5, 7}, base, ones},
		{"NaN in y", base, Series{1, 4, nan, 8, 5, 7}, ones},
		{"NaN in w", base, base, Series{1, 1, nan, 1, 1, 1}},
		{"+Inf in x", Series{1, inf, 2, 8, 5, 7}, base, ones},
		{"-Inf in y", base, Series{1, 4, 2, -inf, 5, 7}, ones},
		{"Inf weight", base, base, Series{1, inf, 1, 1, 1, 1}},
		{"zero weights", base, Series{2, 1, 2, 1, 2, 1}, Series{0, 0, 0, 0, 0, 0}},
		{"weights cancel", base, Series{2, 1, 2, 1, 2, 1}, Series{1, -1, 1, -1, 1, -1}},
		{"constant x", Series{3, 3, 3, 3, 3, 3}, base, ones},
		{"constant y", base, Series{3, 3, 3, 3, 3, 3}, ones},
		{"constant both", Series{3, 3, 3, 3, 3, 3}, Series{1e9, 1e9, 1e9, 1e9, 1e9, 1e9}, ones},
		{"zero y", base, Series{0, 0, 0, 0, 0, 0}, ones},
		{"zeros in y", base, Series{0, 4, 0, 8, 0, 7}, Series{0.1, 0.9, 0.5, 0, 1, 0.3}},
		{"huge", Series{1e200, -1e200, 1e200, 0, 1, 2}, Series{1e200, 1e200, -1e200, 3, 2, 1}, ones},
		{"one element", Series{2}, Series{3}, Series{1}},
	}
	for _, tc := range cases {
		checkRefs(t, tc.label, tc.x, tc.y, tc.w)
	}
	if _, err := NewCorrRef(base).CorrRatio(base, make(Series, 5)); err != ErrLengthMismatch {
		t.Errorf("CorrRatio with a short scratch: %v, want ErrLengthMismatch", err)
	}
}

// TestDownsampleGroupsHaveSumBits: the interleaved accumulators give every
// output the bits of summing its group alone, whatever the factor leaves
// over — full quads of groups, a few more, a partial last group.
func TestDownsampleGroupsHaveSumBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 59, 60, 240, 241, 299, 300, 2100, 2111} {
		s := make(Series, n)
		for i := range s {
			s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)))
		}
		for _, factor := range []int{2, 7, 60} {
			got := s.Downsample(factor)
			if len(got) != (n+factor-1)/factor {
				t.Fatalf("n=%d factor=%d: %d groups", n, factor, len(got))
			}
			for g := range got {
				want := s[g*factor : min((g+1)*factor, n)].Sum()
				if math.Float64bits(got[g]) != math.Float64bits(want) {
					t.Fatalf("n=%d factor=%d group %d: %v, want %v", n, factor, g, got[g], want)
				}
			}
		}
	}
}
