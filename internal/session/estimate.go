// Package session implements PinSQL's individual active-session estimation
// (§IV-C): recovering, for every SQL template, a per-second active-session
// series from nothing but the query log — no Performance Schema, no load on
// the instance.
//
// A query q is active during [t(q), t(q)+tres(q)). For a time period p the
// probability that q is observed active is
//
//	P(observed(p, q)) = |p ∩ [t(q), t(q)+tres(q))| / |p|,
//
// and the expected active session of period p is the sum of P over all
// queries. SHOW STATUS reports the instance's session count at one unknown
// instant t₃ inside each second (Fig. 3); the estimator splits every second
// into K buckets, picks the bucket whose expected session count is closest
// to the reported value (selₜ = argmin |sessionₜ − E[session_bᵢ]|), and
// evaluates each template's expectation inside that bucket only.
//
// Three estimators are provided, matching Table III's comparison: ByRT
// (total response time per second), NoBuckets (whole-second expectation),
// and Buckets (the paper's method, K = 10 by default).
package session

// DefaultBuckets is the paper's K = 10.
const DefaultBuckets = 10

// overlap returns the length of [lo, hi) ∩ [qlo, qhi), 0 when they do not
// meet.
func overlap(qlo, qhi, lo, hi float64) float64 {
	if qlo > lo {
		lo = qlo
	}
	if qhi < hi {
		hi = qhi
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// apart reports whether [qlo, qhi) ends by lo or begins at or after hi, in
// which case overlap is 0. On which side of a period an observation falls is
// a coin toss, so the two comparisons fold into one test instead of two
// branches; anything it does not rule out (NaN included) is overlap's.
func apart(qlo, qhi, lo, hi float64) bool {
	var before, after int
	if qhi <= lo {
		before = 1
	}
	if qlo >= hi {
		after = 1
	}
	return before|after != 0
}

// secondSpan returns the inclusive range of window seconds a query's active
// interval can touch, clamped to [0, seconds-1]. A query entirely outside
// the window, or one whose end is NaN, yields an empty range (first > last).
// The end is clamped to the window as a float, before it becomes an integer:
// converting a float beyond int's range (a +Inf or 1e300 ms response) is
// implementation-defined, and no result may depend on it.
func secondSpan(arrivalMs int64, responseMs float64, startMs int64, seconds int) (first, last int) {
	endMs := float64(arrivalMs) + responseMs
	first = int((arrivalMs - startMs) / 1000)
	if arrivalMs < startMs || first < 0 {
		first = 0
	}
	if !(endMs > float64(startMs)) {
		return first, -1 // empty
	}
	if x := (endMs - float64(startMs)) / 1000; x < float64(seconds) {
		return first, int(x)
	}
	return first, seconds - 1
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
