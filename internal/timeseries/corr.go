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

// WeightedCorr returns the weighted Pearson correlation between x and y
// under the non-negative weight vector w, computed with the weighted
// covariance of §V:
//
//	cov(X,Y;W) = Σᵢ wᵢ·(xᵢ−m(X;W))·(yᵢ−m(Y;W)) / Σᵢ wᵢ
//
// Zero total weight or zero weighted variance yields 0.
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
type CorrRef struct {
	y Series
	fixedSide
}

// WeightedCorrRef is CorrRef for WeightedCorr: one y and one w.
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
}

// NewCorrRef prepares y for r.Corr(x) == Corr(x, y) and
// r.CorrRatio(x, …) == Corr(x/y, y).
func NewCorrRef(y Series) *CorrRef {
	r := &CorrRef{y: y}
	r.weight, r.dy = float64(len(y)), make(Series, len(y))
	my := y.Mean()
	for i, v := range y {
		d := v - my
		r.dy[i] = d
		r.syy += d * d
	}
	r.flatY = degenerate(r.syy, r.weight, my)
	return r
}

// NewWeightedCorrRef prepares y and w for r.Corr(x) == WeightedCorr(x, y, w).
// With len(w) != len(y) every correlation is a length mismatch.
func NewWeightedCorrRef(y, w Series) *WeightedCorrRef {
	r := &WeightedCorrRef{y: y, w: w}
	if len(w) != len(y) {
		return r
	}
	for _, wi := range w {
		r.weight += wi
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

// CorrRatio returns Corr(x/y, y), bit for bit — the element-wise ratio under
// Div's rule that a zero denominator yields zero. The ratio is written to
// the caller's scratch, which must have y's length, and summed while it is
// divided.
func (r *CorrRef) CorrRatio(x, scratch Series) (float64, error) {
	if len(x) != len(r.y) || len(scratch) != len(x) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 {
		return 0, nil
	}
	var sum float64
	y := r.y[:len(x)]
	for i, v := range x {
		var q float64
		if y[i] != 0 {
			q = v / y[i]
		}
		scratch[i] = q
		sum += q
	}
	return r.score(scratch, sum/float64(len(x))), nil
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

// Corr returns WeightedCorr(x, y, w), bit for bit.
func (r *WeightedCorrRef) Corr(x Series) (float64, error) {
	if len(x) != len(r.y) || len(x) != len(r.w) {
		return 0, ErrLengthMismatch
	}
	if len(x) == 0 || r.weight == 0 {
		return 0, nil
	}
	w, dy := r.w[:len(x)], r.dy[:len(x)]
	var mx float64
	for i, v := range x {
		mx += w[i] * v
	}
	mx /= r.weight
	var sxy, sxx float64
	for i, v := range x {
		dx := v - mx
		t := w[i] * dx
		sxy += t * dy[i]
		sxx += t * dx
	}
	return r.finish(sxy, sxx, mx), nil
}

func (f *fixedSide) finish(sxy, sxx, mx float64) float64 {
	if degenerate(sxx, f.weight, mx) || f.flatY {
		return 0
	}
	return clampCorr(sxy / math.Sqrt(sxx*f.syy))
}
