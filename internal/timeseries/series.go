// Package timeseries provides the time-series primitives that every PinSQL
// module builds on: basic statistics, Pearson and weighted Pearson
// correlation, the sigmoid anomaly-period weight from the paper (§V),
// min-max normalization, Tukey's rule and robust spike detection (§IV-B,
// §VI), mean-squared error, and polynomial least-squares fitting (Fig. 7).
//
// A Series is a plain []float64 sampled at a fixed interval. Following
// Definition II.1 of the paper, accessing an element by timestamp is
// equivalent to accessing it by index once the caller subtracts the start
// time and divides by the interval; the packages above this one do that
// translation, so everything here is index-based.
package timeseries

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// Series is a fixed-interval sequence of observations (Definition II.1).
type Series []float64

// ErrLengthMismatch reports that two series passed to a pairwise operation
// have different lengths.
var ErrLengthMismatch = errors.New("timeseries: series length mismatch")

// Clone returns a copy of s that shares no storage with s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Sum returns the sum of all observations.
func (s Series) Sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s))
}

// Var returns the population variance, or 0 for an empty series.
func (s Series) Var() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s {
		d := v - m
		acc += d * d
	}
	return acc / float64(len(s))
}

// Std returns the population standard deviation.
func (s Series) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or +Inf for an empty series.
func (s Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest observation, or -Inf for an empty series.
func (s Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	return max
}

// Add returns the element-wise sum of s and t.
func (s Series) Add(t Series) (Series, error) {
	if len(s) != len(t) {
		return nil, ErrLengthMismatch
	}
	out := make(Series, len(s))
	for i := range s {
		out[i] = s[i] + t[i]
	}
	return out, nil
}

// Slice returns s[lo:hi] clamped to the valid index range, so callers can
// pass anomaly windows that overrun the trace boundary without panicking.
func (s Series) Slice(lo, hi int) Series {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	if lo >= hi {
		return Series{}
	}
	return s[lo:hi]
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear interpolation
// between closest ranks. It returns 0 for an empty series.
func (s Series) Quantile(q float64) float64 {
	sorted := s.Clone()
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile of a series sorted ascending.
func quantileSorted(sorted Series, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func (s Series) Median() float64 { return s.Quantile(0.5) }

// MAD returns the median absolute deviation from the median.
func (s Series) MAD() float64 { return s.madAbout(s.Median()) }

// madAbout is MAD for a caller that already holds the series' median.
func (s Series) madAbout(med float64) float64 {
	dev := make(Series, len(s))
	for i, v := range s {
		dev[i] = math.Abs(v - med)
	}
	sort.Float64s(dev)
	return quantileSorted(dev, 0.5)
}

// DownsampleInto writes into buf's storage, grown if need be, the sums of
// consecutive groups of factor samples, a coarser-granularity series (e.g.
// 1 s → 1 min with factor 60), and returns them. A trailing partial group
// is summed as-is. Four full groups are summed at a time, each in its own
// accumulator over its own samples in order, so every output has the bits
// Sum gives it.
func (s Series) DownsampleInto(buf Series, factor int) Series {
	if factor <= 1 || len(s) == 0 {
		return append(buf[:0], s...)
	}
	n := (len(s) + factor - 1) / factor
	out := slices.Grow(buf[:0], n)[:n]
	b := 0
	for ; (b+4)*factor <= len(s); b += 4 {
		g := s[b*factor : (b+4)*factor]
		g0, g1, g2, g3 := g[:factor], g[factor:2*factor], g[2*factor:3*factor], g[3*factor:]
		var a0, a1, a2, a3 float64
		for i, v := range g0 {
			a0 += v
			a1 += g1[i]
			a2 += g2[i]
			a3 += g3[i]
		}
		out[b], out[b+1], out[b+2], out[b+3] = a0, a1, a2, a3
	}
	for ; b < len(out); b++ {
		out[b] = s[b*factor : min((b+1)*factor, len(s))].Sum()
	}
	return out
}

// MinMax rescales s into [0,1]. A constant series maps to all zeros, which
// keeps downstream scores finite (the paper's min-max normalization feeds
// the scale-level score, §V).
func (s Series) MinMax() Series {
	out := make(Series, len(s))
	min, max := s.Min(), s.Max()
	span := max - min
	if span == 0 || math.IsInf(min, 0) {
		return out
	}
	for i, v := range s {
		out[i] = (v - min) / span
	}
	return out
}

// MSE returns the mean squared error between two equal-length series.
func MSE(a, b Series) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	if len(a) == 0 {
		return 0, nil
	}
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc / float64(len(a)), nil
}
