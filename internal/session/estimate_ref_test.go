package session

import (
	"sort"
	"testing"

	"pinsql/internal/cpufeat"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// obs is one logged query observation: start time and response time.
type obs struct {
	ArrivalMs  int64
	ResponseMs float64
}

// queries maps each SQL template to its logged observations.
type queries map[sqltemplate.ID][]obs

// frameFromQueries builds a window frame over the given query log with the
// templates deliberately laid out in DESCENDING ID order, so the ByID
// permutation is a real reordering and any iteration-order mistake in the
// frame estimators shows up as a bit difference.
func frameFromQueries(q queries, startMs int64, seconds int) *window.Frame {
	ids := make([]string, 0, len(q))
	for id := range q {
		ids = append(ids, string(id))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	f := &window.Frame{
		Topic:   "differential",
		StartMs: startMs,
		Seconds: seconds,
		Off:     make([]int32, 1, len(ids)+1),
	}
	for i, id := range ids {
		f.Templates = append(f.Templates, window.Template{
			Meta: window.Meta{Index: int32(i), ID: sqltemplate.ID(id)},
		})
		for _, o := range q[sqltemplate.ID(id)] {
			f.Arrival = append(f.Arrival, o.ArrivalMs)
			f.Response = append(f.Response, o.ResponseMs)
		}
		f.Off = append(f.Off, int32(len(f.Arrival)))
	}
	f.Finalize()
	return f
}

// dense expands a sparse series.
func dense(x timeseries.Sparse) timeseries.Series {
	s := make(timeseries.Series, x.N)
	x.AddTo(s)
	return s
}

// refEstimate is a reference estimator's result, dense and keyed by template
// ID; a template without observations has no entry.
type refEstimate struct {
	PerTemplate map[sqltemplate.ID]timeseries.Series
	Total       timeseries.Series
	SelBucket   []int
}

// refEstimateBuckets is the map-keyed bucketed estimator EstimateFrameBuckets
// replaced, kept as its oracle: it reads the frame's observation groups into
// a map, walks the template IDs in sorted order, and for every second an
// observation spans evaluates every one of the k buckets — no block cut, no
// bucket range, no direct path. With k = 1 the one bucket is the whole
// second, which makes it EstimateFrameNoBuckets' oracle too.
func refEstimateBuckets(f *window.Frame, observed timeseries.Series, k int) *refEstimate {
	startMs, seconds := f.StartMs, f.Seconds
	q := make(queries, len(f.Templates))
	for pos := range f.Templates {
		arr, resp := f.Obs(pos)
		for i := range arr {
			id := f.Templates[pos].Meta.ID
			q[id] = append(q[id], obs{ArrivalMs: arr[i], ResponseMs: resp[i]})
		}
	}
	ids := make([]sqltemplate.ID, 0, len(q))
	for id := range q {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	est := &refEstimate{
		PerTemplate: make(map[sqltemplate.ID]timeseries.Series, len(q)),
		Total:       make(timeseries.Series, seconds),
		SelBucket:   make([]int, seconds),
	}
	bucketLen := 1000.0 / float64(k)
	overlapMs := func(o obs, lo, hi float64) float64 {
		qlo := float64(o.ArrivalMs)
		return overlap(qlo, qlo+o.ResponseMs, lo, hi)
	}

	// Expected total session per bucket, then selection against the
	// observed SHOW STATUS value.
	perSec := make([][]obs, seconds)
	for _, id := range ids {
		for _, o := range q[id] {
			first, last := secondSpan(o.ArrivalMs, o.ResponseMs, startMs, seconds)
			for sec := first; sec <= last; sec++ {
				perSec[sec] = append(perSec[sec], o)
			}
		}
	}
	totals := make([]float64, k)
	for sec := 0; sec < seconds; sec++ {
		clear(totals)
		base := float64(startMs + int64(sec)*1000)
		for _, o := range perSec[sec] {
			for b := 0; b < k; b++ {
				blo := base + float64(b)*bucketLen
				if ov := overlapMs(o, blo, blo+bucketLen); ov > 0 {
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

	// Per-template expectation inside the selected bucket, summed into the
	// total in sorted template order.
	for _, id := range ids {
		s := make(timeseries.Series, seconds)
		for _, o := range q[id] {
			first, last := secondSpan(o.ArrivalMs, o.ResponseMs, startMs, seconds)
			for sec := first; sec <= last; sec++ {
				lo := float64(startMs+int64(sec)*1000) + float64(est.SelBucket[sec])*bucketLen
				hi := lo + bucketLen
				if ov := overlapMs(o, lo, hi); ov > 0 {
					s[sec] += ov / (hi - lo)
				}
			}
		}
		est.PerTemplate[id] = s
		for i, v := range s {
			est.Total[i] += v
		}
	}
	return est
}

// refEstimateByRT is EstimateFrameByRT over one dense series per template:
// each observation's response, in seconds, lands whole in the second it
// arrived in, in arrival order, and the total sums the series in ByID order.
func refEstimateByRT(f *window.Frame) *refEstimate {
	est := &refEstimate{PerTemplate: map[sqltemplate.ID]timeseries.Series{}, Total: make(timeseries.Series, f.Seconds)}
	for _, pos := range f.ByID {
		arr, resp := f.Obs(int(pos))
		if len(arr) == 0 {
			continue
		}
		s := make(timeseries.Series, f.Seconds)
		for i, a := range arr {
			if sec := int((a - f.StartMs) / 1000); a >= f.StartMs && sec < f.Seconds {
				s[sec] += resp[i] / 1000
			}
		}
		est.PerTemplate[f.Templates[pos].Meta.ID] = s
		for i, v := range s {
			est.Total[i] += v
		}
	}
	return est
}

// checkAllEstimators holds the three frame estimators to their dense
// references over f, their walks on the kernel or in Go: the whole second
// is the one bucket of K = 1.
func checkAllEstimators(t *testing.T, label string, f *window.Frame, observed timeseries.Series, k, workers int, kernel bool) {
	t.Helper()
	checkFrameEstimate(t, label+" byRT", f, EstimateFrameByRT(f), refEstimateByRT(f))
	whole := refEstimateBuckets(f, nil, 1)
	whole.SelBucket = nil
	checkFrameEstimate(t, label+" noBuckets", f, estimateFrameNoBuckets(f, kernel), whole)
	checkFrameEstimate(t, label+" buckets", f, estimateFrameBuckets(f, observed, k, workers, kernel), refEstimateBuckets(f, observed, k))
}

// forEachWalk runs body as a subtest per walk: "go", and "kernel", skipped
// where the CPU lacks the kernel's features.
func forEachWalk(t *testing.T, body func(t *testing.T, kernel bool)) {
	for _, kernel := range []bool{false, true} {
		t.Run(map[bool]string{false: "go", true: "kernel"}[kernel], func(t *testing.T) {
			if kernel && !cpufeat.AVX2 {
				t.Skip("the CPU lacks AVX2 or the OS does not save its registers: no kernel path")
			}
			body(t, kernel)
		})
	}
}
