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

import (
	"sort"

	"pinsql/internal/parallel"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

// Obs is one logged query observation: start time and response time.
type Obs struct {
	ArrivalMs  int64
	ResponseMs float64
}

// Queries maps each SQL template to its logged observations inside the
// diagnosis window.
type Queries map[sqltemplate.ID][]Obs

// DefaultBuckets is the paper's K = 10.
const DefaultBuckets = 10

// Estimate is the result of a session estimation over a window of n
// seconds.
type Estimate struct {
	// PerTemplate is each template's estimated individual active session,
	// one value per second (sessionQ of §IV-C).
	PerTemplate map[sqltemplate.ID]timeseries.Series
	// Total is the sum over templates; comparing it against the observed
	// instance active session measures estimation quality (§VIII-F).
	Total timeseries.Series
	// SelBucket is the chosen bucket index per second; -1 where no bucket
	// selection happened (ByRT / NoBuckets variants).
	SelBucket []int
}

// overlapMs returns the overlap in milliseconds between [lo, hi) and the
// query's active interval.
func overlapMs(q Obs, lo, hi float64) float64 {
	qlo := float64(q.ArrivalMs)
	return overlap(qlo, qlo+q.ResponseMs, lo, hi)
}

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

// EstimateByRT is the baseline that uses total response time per second as
// the session proxy ("Estimate by RT" in Table III): the summed response
// time of the queries of each second, in seconds. It ignores how a query's
// active interval actually spreads across seconds, which is exactly why it
// correlates poorly with the sampled active session.
func EstimateByRT(queries Queries, startMs int64, seconds int) *Estimate {
	est := newEstimate(queries, seconds)
	for id, obs := range queries {
		s := est.PerTemplate[id]
		for _, q := range obs {
			sec := int((q.ArrivalMs - startMs) / 1000)
			if q.ArrivalMs < startMs || sec >= seconds {
				continue
			}
			s[sec] += q.ResponseMs / 1000
		}
	}
	est.sumTotal()
	return est
}

// EstimateNoBuckets computes the expected active session over each whole
// second ("Estimate w/o buckets"): accurate for the time-averaged session
// but blind to where inside the second SHOW STATUS actually sampled.
func EstimateNoBuckets(queries Queries, startMs int64, seconds int) *Estimate {
	est := newEstimate(queries, seconds)
	for id, obs := range queries {
		s := est.PerTemplate[id]
		accumulate(s, obs, startMs, seconds, func(sec int) (float64, float64) {
			lo := float64(startMs + int64(sec)*1000)
			return lo, lo + 1000
		})
	}
	est.sumTotal()
	return est
}

// EstimateBuckets is the paper's method: split each second into k buckets,
// select the bucket whose expected total session is closest to the observed
// SHOW STATUS value, and evaluate per-template expectations there. observed
// must hold one SHOW STATUS sample per second (length ≥ seconds).
func EstimateBuckets(queries Queries, observed timeseries.Series, startMs int64, seconds, k int) *Estimate {
	return EstimateBucketsWorkers(queries, observed, startMs, seconds, k, 1)
}

// EstimateBucketsWorkers is EstimateBuckets with the diagnosis pipeline's
// Workers knob: 1 runs sequentially on the calling goroutine, <= 0 uses
// GOMAXPROCS workers. The result is identical for every worker count:
// bucket totals and selection are sharded by second (each second's
// accumulation is owned by exactly one worker and runs in sorted template
// order), and per-template accumulation is sharded by template (each
// series is owned by exactly one worker) — no cross-worker reduction ever
// happens, so even the floating-point addition order is fixed.
func EstimateBucketsWorkers(queries Queries, observed timeseries.Series, startMs int64, seconds, k, workers int) *Estimate {
	if k <= 0 {
		k = DefaultBuckets
	}
	est := newEstimate(queries, seconds)
	if seconds <= 0 {
		return est
	}
	bucketLen := 1000.0 / float64(k)
	ids := sortedIDs(queries)

	// Per-second index of the queries whose active interval touches each
	// second, in sorted template order so every second's accumulation
	// order is independent of both map iteration and worker count.
	perSec := make([][]Obs, seconds)
	for _, id := range ids {
		for _, q := range queries[id] {
			first, last := secondSpan(q, startMs, seconds)
			for sec := first; sec <= last; sec++ {
				perSec[sec] = append(perSec[sec], q)
			}
		}
	}

	// Pass 1+2 fused and sharded by second: expected total session per
	// bucket, then selection against the observed SHOW STATUS value.
	parallel.Blocks(workers, seconds, func(lo, hi int) {
		totals := make([]float64, k)
		for sec := lo; sec < hi; sec++ {
			for b := range totals {
				totals[b] = 0
			}
			base := float64(startMs + int64(sec)*1000)
			for _, q := range perSec[sec] {
				for b := 0; b < k; b++ {
					blo := base + float64(b)*bucketLen
					if ov := overlapMs(q, blo, blo+bucketLen); ov > 0 {
						totals[b] += ov / bucketLen
					}
				}
			}
			var target float64
			if sec < len(observed) {
				target = observed[sec]
			}
			best, bestDiff := 0, abs(totals[0]-target)
			for b := 1; b < k; b++ {
				if d := abs(totals[b] - target); d < bestDiff {
					best, bestDiff = b, d
				}
			}
			est.SelBucket[sec] = best
		}
	})

	// Pass 3: per-template expectation inside the selected bucket, sharded
	// by template — each worker writes only the series it owns.
	parallel.ForEach(workers, len(ids), func(ti int) {
		id := ids[ti]
		accumulate(est.PerTemplate[id], queries[id], startMs, seconds, func(sec int) (float64, float64) {
			lo := float64(startMs+int64(sec)*1000) + float64(est.SelBucket[sec])*bucketLen
			return lo, lo + bucketLen
		})
	})
	est.sumTotal()
	return est
}

// sortedIDs returns the template IDs of queries in ascending order, fixing
// an iteration order for the map.
func sortedIDs(queries Queries) []sqltemplate.ID {
	ids := make([]sqltemplate.ID, 0, len(queries))
	for id := range queries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// accumulate adds each query's observation probability to s for every
// second it spans, using the period returned by periodOf(sec).
func accumulate(s timeseries.Series, obs []Obs, startMs int64, seconds int, periodOf func(sec int) (float64, float64)) {
	for _, q := range obs {
		first, last := secondSpan(q, startMs, seconds)
		for sec := first; sec <= last; sec++ {
			lo, hi := periodOf(sec)
			if ov := overlapMs(q, lo, hi); ov > 0 {
				s[sec] += ov / (hi - lo)
			}
		}
	}
}

// secondSpan returns the inclusive range of window seconds a query's active
// interval can touch, clamped to [0, seconds-1]. A query entirely outside
// the window, or one whose end is NaN, yields an empty range (first > last).
// The end is clamped to the window as a float, before it becomes an integer:
// converting a float beyond int's range (a +Inf or 1e300 ms response) is
// implementation-defined, and no result may depend on it.
func secondSpan(q Obs, startMs int64, seconds int) (first, last int) {
	endMs := float64(q.ArrivalMs) + q.ResponseMs
	first = int((q.ArrivalMs - startMs) / 1000)
	if q.ArrivalMs < startMs || first < 0 {
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

func newEstimate(queries Queries, seconds int) *Estimate {
	est := &Estimate{
		PerTemplate: make(map[sqltemplate.ID]timeseries.Series, len(queries)),
		Total:       make(timeseries.Series, seconds),
		SelBucket:   make([]int, seconds),
	}
	for i := range est.SelBucket {
		est.SelBucket[i] = -1
	}
	for id := range queries {
		est.PerTemplate[id] = make(timeseries.Series, seconds)
	}
	return est
}

func (e *Estimate) sumTotal() {
	// Sum in sorted template order: Total's floating-point bits must not
	// depend on map iteration order (the Workers-equivalence property
	// tests compare estimates for exact equality).
	ids := make([]sqltemplate.ID, 0, len(e.PerTemplate))
	for id := range e.PerTemplate {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for i, v := range e.PerTemplate[id] {
			e.Total[i] += v
		}
	}
}

// Quality reports the two Table III metrics — Pearson correlation and MSE —
// between the estimated total and the observed instance active session.
func (e *Estimate) Quality(observed timeseries.Series) (corr, mse float64) {
	n := len(e.Total)
	if len(observed) < n {
		n = len(observed)
	}
	corr, _ = timeseries.Corr(e.Total[:n], observed[:n])
	mse, _ = timeseries.MSE(e.Total[:n], observed[:n])
	return corr, mse
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
