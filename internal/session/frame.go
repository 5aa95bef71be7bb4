package session

import (
	"math"
	"slices"

	"pinsql/internal/parallel"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// FrameEstimate is a session estimation whose per-template axis is keyed by
// frame position (0..T-1) instead of template ID — the index-first
// counterpart of Estimate. PerTemplate has one series per frame template,
// including all-zero series for templates with no logged observations.
type FrameEstimate struct {
	PerTemplate []timeseries.Series
	Total       timeseries.Series
	SelBucket   []int
}

// Quality reports the two Table III metrics — Pearson correlation and MSE —
// between the estimated total and the observed instance active session.
func (e *FrameEstimate) Quality(observed timeseries.Series) (corr, mse float64) {
	n := len(e.Total)
	if len(observed) < n {
		n = len(observed)
	}
	corr, _ = timeseries.Corr(e.Total[:n], observed[:n])
	mse, _ = timeseries.MSE(e.Total[:n], observed[:n])
	return corr, mse
}

// EstimateFrameByRT is EstimateByRT over a window frame: total response
// time per arrival second as the session proxy.
func EstimateFrameByRT(f *window.Frame) *FrameEstimate {
	est := newFrameEstimate(f)
	for pos := range f.Templates {
		s := est.PerTemplate[pos]
		arr, resp := f.Obs(pos)
		for i, a := range arr {
			sec := int((a - f.StartMs) / 1000)
			if a < f.StartMs || sec >= f.Seconds {
				continue
			}
			s[sec] += resp[i] / 1000
		}
	}
	est.sumTotal(f)
	return est
}

// EstimateFrameNoBuckets is EstimateNoBuckets over a window frame: the
// expected active session over each whole second.
func EstimateFrameNoBuckets(f *window.Frame) *FrameEstimate {
	est := newFrameEstimate(f)
	starts := make([]float64, f.Seconds)
	for sec := range starts {
		starts[sec] = float64(f.StartMs + int64(sec)*1000)
	}
	for pos := range f.Templates {
		accumulateFrame(est.PerTemplate[pos], f, pos, starts, 1000)
	}
	est.sumTotal(f)
	return est
}

// maxExactMs bounds the millisecond values whose float64 arithmetic is
// exact to well under a millisecond; a block cut outside it (or NaN, ±Inf)
// falls back to scanning the whole observation group.
const maxExactMs = 1 << 52

// EstimateFrameBuckets is the paper's bucketed estimator (§IV-C) over a
// window frame, with the pipeline's Workers knob. Every (second, bucket)
// total receives its addends in ascending-template-ID (ByID) then arrival
// order — the legacy sorted-map walk — and every per-template series is
// owned by one worker, so the output is bit-identical to the legacy
// map-keyed estimator for every worker count.
func EstimateFrameBuckets(f *window.Frame, observed timeseries.Series, k, workers int) *FrameEstimate {
	if k <= 0 {
		k = DefaultBuckets
	}
	est := newFrameEstimate(f)
	seconds := f.Seconds
	bucketLen := 1000.0 / float64(k)

	// maxResp[pos] is group pos's longest response: an observation that
	// arrives more than that before a block of seconds cannot reach it.
	maxResp := make([]float64, len(f.Templates))
	for pos := range maxResp {
		_, resp := f.Obs(pos)
		m := math.Inf(-1)
		for _, r := range resp {
			if r > m || r != r { // a NaN sticks, and disables the cut below
				m = r
			}
		}
		maxResp[pos] = m
	}

	// Pass 1+2 fused and sharded by second: expected total session per
	// bucket, then selection against the observed SHOW STATUS value. A
	// block walks the groups in ByID order, entering each arrival-sorted
	// group at the first observation that can still reach the block and
	// leaving at the first that arrives after it; Workers = 1 is the
	// one-block case. Per (observation, second) only a conservative bucket
	// range is evaluated: the buckets left out overlap by exactly zero,
	// which the full walk did not add either.
	totals := make([]float64, seconds*k)
	selLo := make([]float64, seconds) // start of each second's selected bucket
	parallel.Blocks(workers, seconds, func(lo, hi int) {
		loMs, hiMs := f.StartMs+int64(lo)*1000, f.StartMs+int64(hi)*1000
		for _, pos := range f.ByID {
			arr, resp := f.Obs(int(pos))
			i := 0
			if cut := float64(loMs) - maxResp[pos]; cut > -maxExactMs && cut < maxExactMs {
				i, _ = slices.BinarySearch(arr, int64(cut)-1)
			}
			for ; i < len(arr) && arr[i] < hiMs; i++ {
				q := Obs{ArrivalMs: arr[i], ResponseMs: resp[i]}
				first, last := secondSpan(q, f.StartMs, seconds)
				first, last = max(first, lo), min(last, hi-1)
				qlo := float64(q.ArrivalMs)
				qhi := qlo + q.ResponseMs
				for sec := first; sec <= last; sec++ {
					base := float64(f.StartMs + int64(sec)*1000)
					b0, b1 := 0, k-1
					if x := (qlo-base)/bucketLen - 1; x > 0 {
						b0 = int(x)
					}
					if x := (qhi-base)/bucketLen + 1; x < float64(b1) {
						b1 = int(x)
					}
					row := totals[sec*k : sec*k+k]
					for b := b0; b <= b1; b++ {
						blo := base + float64(b)*bucketLen
						if ov := overlapMs(q, blo, blo+bucketLen); ov > 0 {
							row[b] += ov / bucketLen
						}
					}
				}
			}
		}
		for sec := lo; sec < hi; sec++ {
			row := totals[sec*k : sec*k+k]
			var target float64
			if sec < len(observed) {
				target = observed[sec]
			}
			best, bestDiff := 0, abs(row[0]-target)
			for b := 1; b < k; b++ {
				if d := abs(row[b] - target); d < bestDiff {
					best, bestDiff = b, d
				}
			}
			est.SelBucket[sec] = best
			selLo[sec] = float64(f.StartMs+int64(sec)*1000) + float64(best)*bucketLen
		}
	})

	// Pass 3: per-template expectation inside the selected bucket, sharded
	// by template — each worker writes only the series it owns.
	parallel.ForEach(workers, len(f.Templates), func(pos int) {
		accumulateFrame(est.PerTemplate[pos], f, pos, selLo, bucketLen)
	})
	est.sumTotal(f)
	return est
}

// accumulateFrame adds template pos's observation probabilities to s for
// every second each observation spans; second sec's period is
// [periodLo[sec], periodLo[sec]+periodLen).
func accumulateFrame(s timeseries.Series, f *window.Frame, pos int, periodLo []float64, periodLen float64) {
	arr, resp := f.Obs(pos)
	for i, a := range arr {
		q := Obs{ArrivalMs: a, ResponseMs: resp[i]}
		first, last := secondSpan(q, f.StartMs, f.Seconds)
		for sec := first; sec <= last; sec++ {
			lo := periodLo[sec]
			hi := lo + periodLen
			if ov := overlapMs(q, lo, hi); ov > 0 {
				s[sec] += ov / (hi - lo)
			}
		}
	}
}

func newFrameEstimate(f *window.Frame) *FrameEstimate {
	est := &FrameEstimate{
		PerTemplate: make([]timeseries.Series, len(f.Templates)),
		Total:       make(timeseries.Series, f.Seconds),
		SelBucket:   make([]int, f.Seconds),
	}
	for i := range est.SelBucket {
		est.SelBucket[i] = -1
	}
	for pos := range est.PerTemplate {
		est.PerTemplate[pos] = make(timeseries.Series, f.Seconds)
	}
	return est
}

// sumTotal accumulates Total in ByID order — the same ascending-template-ID
// float-addition order as Estimate.sumTotal. Templates without
// observations contribute exact zeros, so including them changes no bits.
func (e *FrameEstimate) sumTotal(f *window.Frame) {
	for _, pos := range f.ByID {
		for i, v := range e.PerTemplate[pos] {
			e.Total[i] += v
		}
	}
}
