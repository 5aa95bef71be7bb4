package timeseries

import (
	"math"
	"math/rand"
	"testing"
)

// paletteValue maps a byte to a float: zero below zeros, then the values a
// shortcut around zeros could get wrong (NaN, ±Inf, −0), a band of negative
// numbers, and positive ones.
func paletteValue(b, zeros byte) float64 {
	switch {
	case b < zeros:
		return 0
	case b%32 == 0:
		return math.NaN()
	case b%32 == 1:
		return math.Inf(1)
	case b%32 == 2:
		return math.Inf(-1)
	case b%32 == 3:
		return math.Copysign(0, -1)
	case b%32 < 8:
		return -float64(b) / 7
	}
	return float64(b) * 0.37
}

// checkSparse decodes data into x (mostly zero), y and w (zero in
// stretches) of one length, three bytes an entry, and holds the sparse form
// of x to the dense one: the entries, every range sum, AddTo, and — through
// checkRefs — the three correlations, all by their bits. clean maps the
// special values of y and w to ordinary ones, so the skipping passes run.
func checkSparse(t *testing.T, data []byte, clean bool) {
	t.Helper()
	n := len(data) / 3
	x, y, w := make(Series, n), make(Series, n), make(Series, n)
	for i := range x {
		x[i] = paletteValue(data[3*i], 160)
		y[i] = paletteValue(data[3*i+1], 24)
		w[i] = paletteValue(data[3*i+2], 64) / 100
		if clean {
			if !finiteNonNeg(y[i]) {
				y[i] = 3
			}
			if !finiteNonNeg(w[i]) {
				w[i] = 0.5
			}
		}
	}
	sx := SparseOf(x)
	if sx.N != n || len(sx.Idx) != len(sx.Val) {
		t.Fatalf("SparseOf: N %d of %d, %d indexes, %d values", sx.N, n, len(sx.Idx), len(sx.Val))
	}
	dense := make(Series, n)
	sx.AddTo(dense)
	for k, i := range sx.Idx {
		if sx.Val[k] == 0 || (k > 0 && i <= sx.Idx[k-1]) {
			t.Fatalf("entry %d: index %d after %v, value %v", k, i, sx.Idx[:k], sx.Val[k])
		}
	}
	for i, v := range x {
		if v == 0 {
			v = 0 // −0 is not kept
		}
		if math.Float64bits(dense[i]) != math.Float64bits(v) {
			t.Fatalf("entry %d: %v, dense %v", i, dense[i], v)
		}
	}
	for lo := -1; lo <= n+1; lo++ {
		for _, hi := range []int{lo - 1, lo, lo + 1, lo + n/2, n, n + 3} {
			if got, want := sx.RangeSum(lo, hi), x.Slice(lo, hi).Sum(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("RangeSum(%d, %d) = %v, dense %v", lo, hi, got, want)
			}
		}
	}
	// AddTo over a shorter and a longer destination: the dense loop's clamp.
	for _, m := range []int{n / 2, n + 2} {
		got, want := make(Series, m), make(Series, m)
		for i := range got {
			got[i], want[i] = float64(i), float64(i)
		}
		sx.AddTo(got)
		for i := 0; i < m && i < n; i++ {
			want[i] += x[i]
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("AddTo into %d entries: [%d] = %v, dense %v", m, i, got[i], want[i])
			}
		}
	}
	checkRefs(t, "decoded", x, y, w)
}

// TestSparseMatchesDense is FuzzSparseCorr's check over generated inputs,
// both with every special value in y and w (the scattered dense passes) and
// without (the passes that skip).
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 400; round++ {
		data := make([]byte, 3*rng.Intn(70))
		rng.Read(data)
		checkSparse(t, data, round%2 == 0)
	}
	checkSparse(t, make([]byte, 90), true) // x, y and w all zero
}

// FuzzSparseCorr: for any x, y and w — NaN, ±Inf, −0, negative y, stretches
// of zero weight, an all-zero x included — the sparse form of x sums and
// correlates to the bits of the dense references.
func FuzzSparseCorr(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add(make([]byte, 60), false)
	f.Add([]byte{200, 100, 200, 0, 32, 33, 161, 34, 35, 0, 0, 0, 163, 36, 70, 162, 90, 0, 255, 255, 255}, false)
	f.Add([]byte{170, 40, 0, 0, 41, 0, 0, 42, 0, 180, 43, 0, 0, 44, 90, 190, 45, 91, 0, 46, 92}, true)
	f.Fuzz(func(t *testing.T, data []byte, clean bool) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		checkSparse(t, data, clean)
	})
}
