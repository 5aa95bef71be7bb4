package timeseries

import "math"

// Corr returns the Pearson correlation coefficient between x and y (§V,
// "Correlation Coefficient"). When either series has zero variance the
// correlation is undefined; we return 0, which in every PinSQL use site
// means "no evidence of relationship" and keeps scores bounded.
func Corr(x, y Series) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 {
		return 0, nil
	}
	mx, my := x.Mean(), y.Mean()
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	n := float64(len(x))
	if degenerate(sxx, n, mx) || degenerate(syy, n, my) {
		return 0, nil
	}
	return clampCorr(sxy / math.Sqrt(sxx*syy)), nil
}

// degenerate reports whether a sum of squared deviations is zero for all
// practical purposes: exactly zero, or so small relative to the magnitude
// of the data that it is rounding noise from the mean subtraction. Without
// this, two constant series correlate "perfectly" through their shared
// float rounding pattern.
func degenerate(ss, weight, mean float64) bool {
	return ss <= 1e-18*weight*(mean*mean+1)
}

// clampCorr guards against floating-point drift pushing a correlation a few
// ulps outside [-1, 1].
func clampCorr(c float64) float64 {
	switch {
	case c > 1:
		return 1
	case c < -1:
		return -1
	case math.IsNaN(c):
		return 0
	}
	return c
}

// Sigmoid is the logistic function σ(x) = 1/(1+e^−x).
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// SigmoidWeight builds the smooth anomaly-emphasis weight of §V:
//
//	W_t = σ((t−a_s)/k_s) + σ((a_e−t)/k_s) − 1,  t ∈ [0, n)
//
// where [as, ae) is the anomaly window in index units and ks > 0 is the
// smooth factor. As ks→0 the weight approaches the indicator of [as, ae);
// as ks→∞ it approaches the all-ones vector (Eq. 1 of the paper).
func SigmoidWeight(n, as, ae int, ks float64) Series {
	w := make(Series, n)
	if ks <= 0 {
		// Degenerate limit: indicator of the anomaly window.
		for t := range w {
			if t >= as && t < ae {
				w[t] = 1
			}
		}
		return w
	}
	for t := range w {
		ft := float64(t)
		v := Sigmoid((ft-float64(as))/ks) + Sigmoid((float64(ae)-ft)/ks) - 1
		if v < 0 {
			v = 0
		}
		w[t] = v
	}
	return w
}

// CorrRef is the fixed side of many correlations: one y against which many
// x are scored. Everything Corr derives from y alone (its mean, its
// deviations and their sum of squares) is computed once, by the same
// expressions in the same order, so every score has the bits Corr gives
// it; a call then costs one mean pass and one deviation pass over x. A
// CorrRef is read-only after construction and safe to share across
// goroutines.
//
// An x held Sparse is scored through the caller's scratch — len(y) zeros,
// handed back zeroed. The mean pass reads only x's nonzero entries; the
// deviation pass, where a zero entry is −mean and not zero, runs over x
// scattered into the scratch, as written for a dense x. Skipping an entry
// in the mean pass needs what it would have added to be +0: that is decided
// once, from the fixed side (skipZeros), and where it does not hold the
// mean pass runs over the scratch too.
type CorrRef struct {
	y Series
	fixedSide
}

// WeightedCorrRef is CorrRef for the weighted Pearson correlation of §V,
//
//	cov(X,Y;W) = Σᵢ wᵢ·(xᵢ−m(X;W))·(yᵢ−m(Y;W)) / Σᵢ wᵢ
//
// one y and one w. Zero total weight or zero weighted variance yields 0.
type WeightedCorrRef struct {
	y, w Series
	fixedSide
}

// fixedSide is what a correlation needs of its fixed arguments.
type fixedSide struct {
	weight float64 // Σw, or len(y) unweighted
	dy     Series  // y − its (weighted) mean
	syy    float64 // (weighted) sum of dy²
	flatY  bool    // syy is degenerate: every correlation is 0
	// skipZeros: every divisor (y, for CorrRatio) or factor (w) a zero of x
	// would meet is finite and not negative, so 0/y and w·0 are +0.
	skipZeros bool
}

// finiteNonNeg reports whether 0/v (v != 0) and v·0 are +0.
func finiteNonNeg(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// NewCorrRef prepares y for r.Corr(x) == Corr(x, y) and
// r.CorrRatio(x, …) == Corr(x/y, y).
func NewCorrRef(y Series) *CorrRef {
	r := &CorrRef{y: y}
	r.weight, r.dy, r.skipZeros = float64(len(y)), make(Series, len(y)), true
	my := y.Mean()
	for i, v := range y {
		d := v - my
		r.dy[i] = d
		r.syy += d * d
		r.skipZeros = r.skipZeros && finiteNonNeg(v)
	}
	r.flatY = degenerate(r.syy, r.weight, my)
	return r
}

// NewWeightedCorrRef prepares y and w for r.Corr(x). With len(w) != len(y)
// every correlation is a length mismatch.
func NewWeightedCorrRef(y, w Series) *WeightedCorrRef {
	r := &WeightedCorrRef{y: y, w: w}
	if len(w) != len(y) {
		return r
	}
	r.skipZeros = true
	for _, wi := range w {
		r.weight += wi
		r.skipZeros = r.skipZeros && finiteNonNeg(wi)
	}
	var my float64
	for i, v := range y {
		my += w[i] * v
	}
	my /= r.weight
	r.dy = make(Series, len(y))
	for i, v := range y {
		d := v - my
		r.dy[i] = d
		r.syy += w[i] * d * d
	}
	r.flatY = degenerate(r.syy, r.weight, my)
	return r
}

// Corr returns Corr(x, y), bit for bit.
func (r *CorrRef) Corr(x Series) (float64, error) {
	if len(x) != len(r.y) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 {
		return 0, nil
	}
	return r.score(x, x.Mean()), nil
}

// CorrSparse is Corr for a sparse x: the mean is x's, whatever y holds.
func (r *CorrRef) CorrSparse(x Sparse, scratch Series) (float64, error) {
	if x.N != len(r.y) || len(scratch) != x.N {
		return 0, ErrLengthMismatch
	}
	if x.N == 0 {
		return 0, nil
	}
	x.scatter(scratch)
	c := r.score(scratch, Series(x.Val).Sum()/float64(x.N))
	x.unscatter(scratch)
	return c, nil
}

// CorrRatio returns Corr(x/y, y), bit for bit — the element-wise ratio under
// Series.Div's rule that a zero denominator yields zero, summed while it is
// divided.
func (r *CorrRef) CorrRatio(x Sparse, scratch Series) (float64, error) {
	if x.N != len(r.y) || len(scratch) != x.N {
		return 0, ErrLengthMismatch
	}
	if x.N == 0 {
		return 0, nil
	}
	x.scatter(scratch)
	var sum float64
	if r.skipZeros {
		for _, i := range x.Idx {
			sum += divideAt(scratch, r.y, int(i))
		}
	} else {
		for i := range scratch {
			sum += divideAt(scratch, r.y, i)
		}
	}
	c := r.score(scratch, sum/float64(x.N))
	if r.skipZeros {
		x.unscatter(scratch)
	} else {
		clear(scratch) // 0/NaN is not zero
	}
	return c, nil
}

// divideAt replaces q[i] by q[i]/y[i], or by zero where y[i] is, and returns
// it.
func divideAt(q, y Series, i int) float64 {
	v := 0.0
	if y[i] != 0 {
		v = q[i] / y[i]
	}
	q[i] = v
	return v
}

// score is the deviation pass of x, whose mean is mx.
func (r *CorrRef) score(x Series, mx float64) float64 {
	var sxy, sxx float64
	dy := r.dy[:len(x)]
	for i, v := range x {
		dx := v - mx
		sxy += dx * dy[i]
		sxx += dx * dx
	}
	return r.finish(sxy, sxx, mx)
}

// Corr returns the weighted correlation of x with y under w.
func (r *WeightedCorrRef) Corr(x Sparse, scratch Series) (float64, error) {
	if x.N != len(r.y) || x.N != len(r.w) || len(scratch) != x.N {
		return 0, ErrLengthMismatch
	}
	if x.N == 0 || r.weight == 0 {
		return 0, nil
	}
	x.scatter(scratch)
	w, dy := r.w[:len(scratch)], r.dy[:len(scratch)]
	var mx float64
	if r.skipZeros {
		for k, i := range x.Idx {
			mx += w[i] * x.Val[k]
		}
	} else {
		for i, v := range scratch {
			mx += w[i] * v
		}
	}
	mx /= r.weight
	var sxy, sxx float64
	for i, v := range scratch {
		dx := v - mx
		t := w[i] * dx
		sxy += t * dy[i]
		sxx += t * dx
	}
	x.unscatter(scratch)
	return r.finish(sxy, sxx, mx), nil
}

func (f *fixedSide) finish(sxy, sxx, mx float64) float64 {
	if degenerate(sxx, f.weight, mx) || f.flatY {
		return 0
	}
	return clampCorr(sxy / math.Sqrt(sxx*f.syy))
}
