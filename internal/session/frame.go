package session

import (
	"math"
	"math/bits"
	"slices"

	"pinsql/internal/cpufeat"
	"pinsql/internal/parallel"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// FrameEstimate is the result of a session estimation over a window frame
// of n seconds.
type FrameEstimate struct {
	// PerTemplate is each template's estimated individual active session
	// (sessionQ of §IV-C), one value per second, by frame position: one
	// series per frame template, held as the seconds in which it is not
	// zero — none for a template with no logged observations.
	PerTemplate []timeseries.Sparse
	// Total is the sum over templates; comparing it against the observed
	// instance active session measures estimation quality (§VIII-F).
	Total timeseries.Series
	// SelBucket is the chosen bucket index per second; -1 where no bucket
	// selection happened (ByRT / NoBuckets variants).
	SelBucket []int
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

// EstimateFrameByRT is the baseline that uses total response time per second
// as the session proxy ("Estimate by RT" in Table III): the summed response
// time of the queries arriving in each second, in seconds. It ignores how a
// query's active interval actually spreads across seconds, which is exactly
// why it correlates poorly with the sampled active session.
func EstimateFrameByRT(f *window.Frame) *FrameEstimate {
	est := newFrameEstimate(f)
	est.fill(f, 1, func(s *fillScratch, pos int) {
		arr, resp := f.Obs(pos)
		for i, a := range arr {
			sec := int((a - f.StartMs) / 1000)
			if a < f.StartMs || sec >= f.Seconds {
				continue
			}
			s.add(sec, resp[i]/1000)
		}
	})
	return est
}

// EstimateFrameNoBuckets computes the expected active session over each
// whole second ("Estimate w/o buckets"): accurate for the time-averaged
// session but blind to where inside the second SHOW STATUS actually sampled.
func EstimateFrameNoBuckets(f *window.Frame) *FrameEstimate {
	return estimateFrameNoBuckets(f, cpufeat.AVX2)
}

// estimateFrameNoBuckets is EstimateFrameNoBuckets; kernel false keeps its
// walk in Go.
func estimateFrameNoBuckets(f *window.Frame, kernel bool) *FrameEstimate {
	est := newFrameEstimate(f)
	starts := secondStarts(f)
	kernel = kernel && kernelFits(f, 1)
	est.fill(f, 1, func(s *fillScratch, pos int) {
		accumulateFrame(s, f, pos, starts, starts[:f.Seconds], 1000, kernel)
	})
	return est
}

// maxExactMs bounds the millisecond values whose float64 arithmetic is
// exact to well under a millisecond; a block cut outside it (or NaN, ±Inf)
// falls back to scanning the whole observation group.
const maxExactMs = 1 << 52

// EstimateFrameBuckets is the paper's method (§IV-C): split each second into
// k buckets, select the bucket whose expected total session is closest to the
// observed SHOW STATUS value, and evaluate per-template expectations there.
// observed holds one SHOW STATUS sample per second; workers is the
// pipeline's Workers knob (1 runs on the calling goroutine, <= 0 uses
// GOMAXPROCS). Every (second, bucket) total receives its addends in
// ascending-template-ID (ByID) then arrival order, each second is owned by
// one worker and so is every per-template series, so no cross-worker
// reduction happens and the output is bit-identical for every worker count.
// Where the CPU has AVX2, both walks take the kernel when kernelFits says
// so, with the same bits.
func EstimateFrameBuckets(f *window.Frame, observed timeseries.Series, k, workers int) *FrameEstimate {
	return estimateFrameBuckets(f, observed, k, workers, cpufeat.AVX2)
}

// estimateFrameBuckets is EstimateFrameBuckets; kernel false keeps both
// walks in Go.
func estimateFrameBuckets(f *window.Frame, observed timeseries.Series, k, workers int, kernel bool) *FrameEstimate {
	if k <= 0 {
		k = DefaultBuckets
	}
	kernel = kernel && kernelFits(f, k)
	est := newFrameEstimate(f)
	seconds := f.Seconds
	bucketLen := 1000.0 / float64(k)
	starts := secondStarts(f)
	// bucketOff[b+1] is bucket b's offset into its second, as the span loop
	// computes it inline; the entries before bucket 0 and after bucket k-1
	// stand for buckets that end before, and begin after, everything.
	bucketOff := make([]float64, k+2)
	bucketOff[0], bucketOff[k+1] = math.Inf(-1), math.Inf(1)
	for b := 0; b < k; b++ {
		bucketOff[b+1] = float64(b) * bucketLen
	}
	perMs := 1 / bucketLen

	// maxResp[pos] is group pos's longest response: an observation that
	// arrives more than that before a block of seconds cannot reach it.
	// Only a block that does not start the window asks, so one block —
	// Workers = 1 — needs none.
	var maxResp []float64
	if parallel.Resolve(workers) > 1 {
		maxResp = make([]float64, len(f.Templates))
		parallel.ForEach(workers, len(maxResp), func(pos int) {
			_, resp := f.Obs(pos)
			m := math.Inf(-1)
			for _, r := range resp {
				if r > m || r != r { // a NaN sticks, and disables the cut below
					m = r
				}
			}
			maxResp[pos] = m
		})
	}

	// Pass 1+2 fused and sharded by second: expected total session per
	// bucket, then selection against the observed SHOW STATUS value. A
	// block walks the groups in ByID order, entering each arrival-sorted
	// group at the first observation that can still reach the block and
	// leaving at the first that arrives after it; Workers = 1 is the
	// one-block case.
	//
	// An observation that begins inside the block, ends inside the second
	// it begins in and can overlap no bucket but the one it begins in —
	// nearly all of them — is added to that bucket directly. Everything
	// else (several buckets or seconds, an arrival before the block, a
	// non-finite response, a window beyond exact millisecond arithmetic)
	// goes through the span loop, which per (observation, second)
	// evaluates a conservative bucket range. Either way the buckets left
	// out overlap by exactly zero, which the full walk did not add either,
	// and the ones evaluated get the same expression in the same order.
	// The kernel settles four observations a vector, the Go direct path's
	// and more (walk_amd64.s), and hands the rest to the span loop; the
	// adds stay here, in arrival order.
	exact := exactWindow(f)
	totals := make([]float64, seconds*k)
	selLo := make([]float64, seconds) // start of each second's selected bucket
	// span adds what an observation that arrives at a with response r
	// overlaps in the block's seconds [lo, hi).
	span := func(a int64, r float64, lo, hi int) {
		qlo := float64(a)
		qhi := qlo + r
		first, last := secondSpan(a, r, f.StartMs, seconds)
		first, last = max(first, lo), min(last, hi-1)
		for sec := first; sec <= last; sec++ {
			base := starts[sec]
			b0, b1 := 0, k-1
			if x := (qlo-base)/bucketLen - 1; x > 0 {
				b0 = int(x)
			}
			if x := (qhi-base)/bucketLen + 1; x < float64(b1) {
				b1 = int(x)
			}
			row := totals[sec*k : sec*k+k]
			for b := b0; b <= b1; b++ {
				blo := base + bucketOff[b+1]
				if ov := overlap(qlo, qhi, blo, blo+bucketLen); ov > 0 {
					row[b] += ov / bucketLen
				}
			}
		}
	}
	parallel.Blocks(workers, seconds, func(lo, hi int) {
		loMs, hiMs := f.StartMs+int64(lo)*1000, f.StartMs+int64(hi)*1000
		directLo := loMs // arrivals in [directLo, hiMs) may take the direct path
		if !exact {
			directLo = hiMs
		}
		var cells [walkChunk]int32
		var vals [walkChunk]float64
		for _, pos := range f.ByID {
			arr, resp := f.Obs(int(pos))
			i := 0
			if lo > 0 {
				if cut := float64(loMs) - maxResp[pos]; cut > -maxExactMs && cut < maxExactMs {
					i, _ = slices.BinarySearch(arr, int64(cut)-1)
				}
			}
			end := len(arr) // the first to arrive after the block
			if end > 0 && arr[end-1] >= hiMs {
				end, _ = slices.BinarySearch(arr, hiMs)
			}
			for kernel && end-i >= 4 {
				n := min(end-i, walkChunk) &^ 3
				bucketCells(&arr[i], &resp[i], n, f.StartMs, int64(lo)*1000, int64(hi)*1000, float64(f.StartMs), bucketLen, perMs, &cells, &vals)
				for j, c := range cells[:n] {
					if c >= 0 {
						totals[c] += vals[j]
					} else {
						span(arr[i+j], resp[i+j], lo, hi)
					}
				}
				i += n
			}
			for ; i < end; i++ {
				qlo := float64(arr[i])
				qhi := qlo + resp[i]
				if arr[i] >= directLo {
					sec := int((arr[i] - f.StartMs) / 1000)
					if base := starts[sec]; qhi <= starts[sec+1] {
						// Bucket starts and ends never decrease with b, so
						// whichever b is tried — this one is a guess, a
						// product where the span loop divides — no earlier
						// bucket overlaps once the one before b ends by
						// qlo, and no later one once the one after b
						// begins at or after qhi.
						if b := int((qlo - base) * perMs); uint(b) < uint(k) {
							off := bucketOff[b : b+3]
							if base+off[0]+bucketLen <= qlo && qhi <= base+off[2] {
								blo := base + off[1]
								if ov := overlap(qlo, qhi, blo, blo+bucketLen); ov > 0 {
									totals[sec*k+b] += ov / bucketLen
								}
								continue
							}
						}
					}
				}
				span(arr[i], resp[i], lo, hi)
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
			selLo[sec] = starts[sec] + float64(best)*bucketLen
		}
	})

	// Pass 3: per-template expectation inside the selected bucket.
	est.fill(f, workers, func(s *fillScratch, pos int) {
		accumulateFrame(s, f, pos, starts, selLo, bucketLen, kernel)
	})
	return est
}

// exactWindow reports whether every millisecond of the frame's window is a
// float64 on which the estimators' arithmetic is exact. Only then does an
// arrival's second by integer division agree with the span loop's float
// division, which is what lets an observation skip that loop.
func exactWindow(f *window.Frame) bool {
	return f.StartMs > -maxExactMs && f.StartMs < maxExactMs && f.StartMs+int64(f.Seconds)*1000 < maxExactMs
}

// walkChunk is the most observations one kernel call takes: what it
// writes sits on the caller's stack, and a bit for each fits a uint64.
const walkChunk = 64

// kernelFits reports whether the walks over f, at k buckets a second, may
// take the kernel: a bucket is a whole number of milliseconds (k divides
// 1000), the window's arithmetic is exact and every (second, bucket) cell
// has an int32 index.
func kernelFits(f *window.Frame, k int) bool {
	return 1000%k == 0 && exactWindow(f) && f.Seconds > 0 && int64(f.Seconds)*int64(k) <= math.MaxInt32
}

// secondStarts returns the start of every second of the frame as a float,
// and the window's end as one entry more: starts[sec+1] is where second sec
// ends.
func secondStarts(f *window.Frame) []float64 {
	starts := make([]float64, f.Seconds+1)
	for sec := range starts {
		starts[sec] = float64(f.StartMs + int64(sec)*1000)
	}
	return starts
}

// accumulateFrame adds template pos's observation probabilities to s for
// every second each observation spans; second sec's period is
// [periodLo[sec], periodLo[sec]+periodLen), inside the second that begins at
// starts[sec]. An observation that begins in the window and ends inside the
// second it begins in is added there directly; the others go through
// spanPeriods, which for such an observation evaluates the same period and,
// where it ends exactly on the second's boundary, one more of zero overlap.
// With kernel, periodMeets makes the direct path's decision four
// observations a vector, and the adds follow in arrival order.
func accumulateFrame(s *fillScratch, f *window.Frame, pos int, starts, periodLo []float64, periodLen float64, kernel bool) {
	arr, resp := f.Obs(pos)
	i := 0
	for kernel && len(arr)-i >= 4 {
		n := min(len(arr)-i, walkChunk) &^ 3
		meets, spans := periodMeets(&arr[i], &resp[i], n, f.StartMs, int64(f.Seconds)*1000, float64(f.StartMs), &periodLo[0], periodLen)
		for m := meets | spans; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			a, r := arr[i+j], resp[i+j]
			if spans&(1<<j) != 0 {
				spanPeriods(s, f, a, r, periodLo, periodLen)
				continue
			}
			qlo := float64(a)
			qhi := qlo + r
			sec := int((a - f.StartMs) / 1000)
			lo := periodLo[sec]
			hi := lo + periodLen
			if ov := overlap(qlo, qhi, lo, hi); ov > 0 {
				s.add(sec, ov/(hi-lo))
			}
		}
		i += n
	}
	directLo, directHi := f.StartMs, f.StartMs+int64(f.Seconds)*1000
	if !exactWindow(f) {
		directLo = directHi
	}
	for ; i < len(arr); i++ {
		a := arr[i]
		qlo := float64(a)
		qhi := qlo + resp[i]
		if a >= directLo && a < directHi {
			if sec := int((a - f.StartMs) / 1000); qhi <= starts[sec+1] {
				lo := periodLo[sec]
				hi := lo + periodLen
				if apart(qlo, qhi, lo, hi) {
					continue // most observations, when the period is a bucket
				}
				if ov := overlap(qlo, qhi, lo, hi); ov > 0 {
					s.add(sec, ov/(hi-lo))
				}
				continue
			}
		}
		spanPeriods(s, f, a, resp[i], periodLo, periodLen)
	}
}

// spanPeriods adds what an observation that arrives at a with response r
// overlaps of the period of every second it spans.
func spanPeriods(s *fillScratch, f *window.Frame, a int64, r float64, periodLo []float64, periodLen float64) {
	qlo := float64(a)
	qhi := qlo + r
	first, last := secondSpan(a, r, f.StartMs, f.Seconds)
	for sec := first; sec <= last; sec++ {
		lo := periodLo[sec]
		hi := lo + periodLen
		if ov := overlap(qlo, qhi, lo, hi); ov > 0 {
			s.add(sec, ov/(hi-lo))
		}
	}
}

func newFrameEstimate(f *window.Frame) *FrameEstimate {
	est := &FrameEstimate{
		PerTemplate: make([]timeseries.Sparse, len(f.Templates)),
		Total:       make(timeseries.Series, f.Seconds),
		SelBucket:   make([]int, f.Seconds),
	}
	for i := range est.SelBucket {
		est.SelBucket[i] = -1
	}
	return est
}

// fillChunk is how many templates' series share one pair of allocations and
// one visit to Total.
const fillChunk = 8

// fillScratch is one worker's stage for a chunk of templates. A template
// accumulates in dense — f.Seconds entries, 17 KB at the wide case, all zero
// between templates — and is then compacted onto idx and val, behind the
// chunk's earlier templates.
type fillScratch struct {
	dense []float64
	// idx is the chunk's compacted seconds and, behind them, the seconds
	// the template being accumulated has touched, in the order it did.
	idx []int32
	val []float64
}

// add adds v to the template's second sec. A second is listed when it is
// zero before an addition, so possibly twice and possibly for nothing —
// compact sorts both out — and never missed.
func (s *fillScratch) add(sec int, v float64) {
	if s.dense[sec] == 0 {
		s.idx = append(s.idx, int32(sec))
	}
	s.dense[sec] += v
}

// compact moves the template accumulated since the last compact out of
// dense — its nonzero seconds, ascending, onto idx and val — and leaves
// dense zero. Arrival order lists seconds ascending unless an observation
// spanning several came before; only then is there anything to sort.
func (s *fillScratch) compact() {
	start := len(s.val)
	touched := s.idx[start:]
	if !slices.IsSorted(touched) {
		slices.Sort(touched)
	}
	s.idx = s.idx[:start]
	for _, sec := range touched { // writes trail reads
		if v := s.dense[sec]; v != 0 { // a second listed twice is zero by now
			s.idx, s.val = append(s.idx, sec), append(s.val, v)
			s.dense[sec] = 0
		}
	}
}

// fill gives every template its series — accumulate(s, pos) adds template
// pos's share, one s.add per addend in the order a dense series would take
// them — and sums Total in ByID order, so its floating-point bits depend on
// the template IDs and not on the frame's layout. A second in which a
// template is zero adds nothing to Total, which changes no bit of it.
//
// The templates go through in ByID order a chunk at a time: one worker
// stages a chunk on its scratch, clones it into the one index and the one
// value allocation the chunk's series share, and Total takes them on the
// calling goroutine, in chunk order. What a call allocates follows the
// observations that overlap a selected period, not templates × seconds.
// Each series is written by one worker and Total by one goroutine in one
// order, so the estimate is identical for every worker count.
func (e *FrameEstimate) fill(f *window.Frame, workers int, accumulate func(s *fillScratch, pos int)) {
	chunks := (len(f.ByID) + fillChunk - 1) / fillChunk
	chunk := func(c int) []int32 { return f.ByID[c*fillChunk : min((c+1)*fillChunk, len(f.ByID))] }
	// A scratch per producer at work, handed from chunk to chunk.
	free := make(chan *fillScratch, parallel.Resolve(workers))
	// Neither function returns an error, so neither does the stream.
	_ = parallel.OrderedStream(workers, chunks, func(c int) (struct{}, error) {
		var s *fillScratch
		select {
		case s = <-free:
		default:
			s = &fillScratch{dense: make([]float64, f.Seconds)}
		}
		members := chunk(c)
		var ends [fillChunk]int
		s.idx, s.val = s.idx[:0], s.val[:0]
		for j, pos := range members {
			accumulate(s, int(pos))
			s.compact()
			ends[j] = len(s.val)
		}
		idx, val := slices.Clone(s.idx), slices.Clone(s.val)
		start := 0
		for j, pos := range members {
			end := ends[j]
			e.PerTemplate[pos] = timeseries.Sparse{N: f.Seconds, Idx: idx[start:end:end], Val: val[start:end:end]}
			start = end
		}
		free <- s
		return struct{}{}, nil
	}, func(c int, _ struct{}) error {
		for _, pos := range chunk(c) {
			e.PerTemplate[pos].AddTo(e.Total)
		}
		return nil
	})
}
