package session

// Differential tests: the frame estimators must reproduce the map-keyed
// all-buckets reference (estimate_ref_test.go) bit for bit — same
// per-template series, same total, same bucket selection — over the same
// observations in the arrival-sorted per-template order the frame fixes.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// sameBits compares two series down to float bits. Two NaNs are the same:
// which payload a sum of two keeps (by-RT, given +Inf, −Inf and NaN
// responses in one second) is the compiler's operand order, not the
// estimator's addend order.
func sameBits(a, b timeseries.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && (a[i] == a[i] || b[i] == b[i]) {
			return false
		}
	}
	return true
}

// checkFrameEstimate verifies fe against the dense reference est over frame
// f: every series is well formed — f.Seconds long, its indexes strictly
// ascending, no value zero — and, expanded, the reference's bit for bit;
// so are the total and the bucket selection. A reference without SelBucket
// stands for an estimator that selects none.
func checkFrameEstimate(t *testing.T, label string, f *window.Frame, fe *FrameEstimate, est *refEstimate) {
	t.Helper()
	if !sameBits(fe.Total, est.Total) {
		t.Fatalf("%s: totals diverge", label)
	}
	for pos := range f.Templates {
		id, x := f.Templates[pos].Meta.ID, fe.PerTemplate[pos]
		if x.N != f.Seconds || len(x.Idx) != len(x.Val) {
			t.Fatalf("%s: template %s: length %d of %d, %d indexes, %d values", label, id, x.N, f.Seconds, len(x.Idx), len(x.Val))
		}
		for k, i := range x.Idx {
			if x.Val[k] == 0 || int(i) >= x.N || (k > 0 && i <= x.Idx[k-1]) {
				t.Fatalf("%s: template %s entry %d: second %d after %v holds %v", label, id, k, i, x.Idx[:k], x.Val[k])
			}
		}
		want, ok := est.PerTemplate[id]
		if !ok {
			// Zero-observation templates have no reference entry; the frame
			// series must be exactly zero.
			want = make(timeseries.Series, f.Seconds)
		}
		if !sameBits(dense(x), want) {
			t.Fatalf("%s: template %s series diverge", label, id)
		}
	}
	for sec, sel := range fe.SelBucket {
		want := -1
		if est.SelBucket != nil {
			want = est.SelBucket[sec]
		}
		if sel != want {
			t.Fatalf("%s: bucket selection diverges at second %d: %d vs %d", label, sec, sel, want)
		}
	}
}

func TestFrameEstimatorsMatchLegacyBitForBit(t *testing.T) {
	const (
		startMs = 1000
		seconds = 30
		k       = 10
	)
	forEachWalk(t, func(t *testing.T, kernel bool) {
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			raw, observed := randomQueries(rng, startMs, seconds)
			f := frameFromQueries(raw, startMs, seconds)

			for _, workers := range []int{1, 3, 0} {
				checkAllEstimators(t, fmt.Sprintf("seed %d w=%d", seed, workers), f, observed, k, workers, kernel)
			}
		}
	})
}

// adversarialQueries builds a query log out of the spans the bucketed
// estimator's shortcuts could get wrong: responses that are zero, negative,
// shorter than a bucket, ending exactly on a bucket or second boundary,
// several seconds long, ten times the window, too long for exact
// millisecond arithmetic, and non-finite; arrivals before the window, in
// its last second and past its end.
func adversarialQueries(rng *rand.Rand, startMs int64, seconds, k int) (queries, timeseries.Series) {
	windowMs := int64(seconds) * 1000
	bucketLen := 1000.0 / float64(k)
	arrival := func() int64 {
		switch rng.Intn(6) {
		case 0: // before the window, up to three of its lengths
			return startMs - 1 - rng.Int63n(3*windowMs)
		case 1: // in the last second
			return startMs + windowMs - 1000 + rng.Int63n(1000)
		case 2: // past the end
			return startMs + windowMs + rng.Int63n(2000)
		case 3: // exactly on a second boundary
			return startMs + 1000*rng.Int63n(int64(seconds))
		default:
			return startMs + rng.Int63n(windowMs)
		}
	}
	response := func(a int64) float64 {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return -rng.Float64() * 3000
		case 2: // sub-bucket
			return rng.Float64() * bucketLen / 2
		case 3: // ends exactly on a bucket boundary of some later second
			sec := (a-startMs)/1000 + rng.Int63n(3)
			return float64(startMs+sec*1000) + float64(rng.Intn(k+1))*bucketLen - float64(a)
		case 4: // ends exactly on a second boundary
			return float64(startMs + ((a-startMs)/1000+1+rng.Int63n(3))*1000 - a)
		case 5: // multi-second
			return 1000 + rng.Float64()*9000
		case 6: // ten times the window
			return float64(10 * windowMs)
		case 7: // beyond exact millisecond arithmetic: the cut must fall back
			return 1e17
		case 8:
			return []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e300}[rng.Intn(4)]
		default:
			return rng.Float64() * 40
		}
	}
	q := make(queries)
	for t, nTemplates := 0, 1+rng.Intn(8); t < nTemplates; t++ {
		id := sqltemplate.ID(fmt.Sprintf("T%02d", t))
		for o, nObs := 0, rng.Intn(60); o < nObs; o++ {
			a := arrival()
			q[id] = append(q[id], obs{ArrivalMs: a, ResponseMs: response(a)})
		}
	}
	observed := make(timeseries.Series, seconds-rng.Intn(3)) // sometimes short
	for i := range observed {
		observed[i] = rng.Float64() * 6
	}
	return q, observed
}

// TestFrameBucketsAdversarialSpansMatchLegacy is the property behind the
// estimator's two shortcuts — a block of seconds enters each group at the
// maxResp cut, and only a conservative bucket range is evaluated per
// (observation, second): on spans built to sit on every boundary, for block
// layouts that split the window unevenly, the estimate equals the reference
// all-buckets walk bit for bit.
func TestFrameBucketsAdversarialSpansMatchLegacy(t *testing.T) {
	const seconds = 37 // not a multiple of the 8-second block grain
	forEachWalk(t, func(t *testing.T, kernel bool) {
		for _, startMs := range []int64{0, 1_700_000_000_123} {
			for _, k := range []int{1, 3, 10} {
				for seed := int64(0); seed < 40; seed++ {
					raw, observed := adversarialQueries(rand.New(rand.NewSource(seed)), startMs, seconds, k)
					f := frameFromQueries(raw, startMs, seconds)
					want := refEstimateBuckets(f, observed, k)
					for _, workers := range []int{1, 2, 3, 7} {
						checkFrameEstimate(t, fmt.Sprintf("start %d k=%d seed %d w=%d", startMs, k, seed, workers), f,
							estimateFrameBuckets(f, observed, k, workers, kernel), want)
					}
				}
			}
		}
	})
}
