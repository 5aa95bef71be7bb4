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

// WeightedCorr is the weighted Pearson correlation between x and y under the
// weight vector w, computed with the weighted covariance of §V as it is
// written without a prepared reference:
//
//	cov(X,Y;W) = Σᵢ wᵢ·(xᵢ−m(X;W))·(yᵢ−m(Y;W)) / Σᵢ wᵢ
//
// Zero total weight or zero weighted variance yields 0. It is the oracle
// WeightedCorrRef.Corr is held to.
func WeightedCorr(x, y, w Series) (float64, error) {
	if len(x) != len(y) || len(x) != len(w) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 {
		return 0, nil
	}
	var wsum float64
	for _, wi := range w {
		wsum += wi
	}
	if wsum == 0 {
		return 0, nil
	}
	var mx, my float64
	for i := range x {
		mx += w[i] * x[i]
		my += w[i] * y[i]
	}
	mx /= wsum
	my /= wsum
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += w[i] * dx * dy
		sxx += w[i] * dx * dx
		syy += w[i] * dy * dy
	}
	if degenerate(sxx, wsum, mx) || degenerate(syy, wsum, my) {
		return 0, nil
	}
	return clampCorr(sxy / math.Sqrt(sxx*syy)), nil
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

// checkRefs holds the prepared scores of x against (y, w) — x dense where a
// reference takes it dense, and as its nonzero entries — to the functions
// they stand for, and the scratch to coming back zeroed.
func checkRefs(t *testing.T, label string, x, y, w Series) {
	t.Helper()
	sx, scratch := SparseOf(x), make(Series, len(y))
	check := func(name string, got float64, gerr error, want float64, werr error) {
		t.Helper()
		if !sameResult(got, gerr, want, werr) {
			t.Errorf("%s: %s = %v, %v; dense reference = %v, %v", label, name, got, gerr, want, werr)
		}
		for i, v := range scratch {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: %s left scratch[%d] = %v", label, name, i, v)
			}
		}
	}
	want, werr := Corr(x, y)
	got, gerr := NewCorrRef(y).Corr(x)
	check("CorrRef.Corr", got, gerr, want, werr)
	got, gerr = NewCorrRef(y).CorrSparse(sx, scratch)
	check("CorrRef.CorrSparse", got, gerr, want, werr)
	got, gerr = NewWeightedCorrRef(y, w).Corr(sx, scratch)
	want, werr = WeightedCorr(x, y, w)
	check("WeightedCorrRef.Corr", got, gerr, want, werr)
	got, gerr = NewCorrRef(y).CorrRatio(sx, scratch)
	want, werr = divCorr(x, y)
	if len(x) != len(y) {
		want, werr = 0, ErrLengthMismatch
	}
	check("CorrRef.CorrRatio", got, gerr, want, werr)
}

// TestCorrRefMatchesCorrBitForBit: a prepared reference returns exactly what
// Corr, WeightedCorr and Corr-of-the-ratio return — on random series, dense
// and mostly zero, and on the inputs where a shortcut would show: NaN and
// ±Inf on either side, all-zero and negative weights, constant series, zeros
// in the denominator, empty series and every length mismatch.
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
			if seed%2 == 0 && rng.Intn(4) != 0 {
				x[i] = 0 // a session: mostly idle
			}
		}
		checkRefs(t, "random", x, y, w)
		// One reference, many x: nothing of one call may leak into the next.
		ref, wref := NewCorrRef(y), NewWeightedCorrRef(y, w)
		scratch := make(Series, n)
		for k := 0; k < 3; k++ {
			for i := range x {
				x[i] = rng.NormFloat64() * float64(rng.Intn(2))
			}
			sx := SparseOf(x)
			got, _ := ref.CorrSparse(sx, scratch)
			want, _ := Corr(x, y)
			gotW, _ := wref.Corr(sx, scratch)
			wantW, _ := WeightedCorr(x, y, w)
			gotR, _ := ref.CorrRatio(sx, scratch)
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
	if _, err := NewCorrRef(base).CorrRatio(SparseOf(base), make(Series, 5)); err != ErrLengthMismatch {
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
			got := s.DownsampleInto(nil, factor)
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
