package session

import (
	"fmt"
	"math"
	"testing"

	"pinsql/internal/cpufeat"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

// shortPathCase decodes fuzz bytes into a query log aimed at the frame
// estimator's direct paths — an observation that begins in a block of
// seconds, ends inside the second it begins in and can overlap one bucket
// only is added without the span loop — and at every way of just missing
// them. Three bytes make one observation: template and kinds, an arrival
// parameter, a response parameter.
func shortPathCase(data []byte, startMs int64, seconds, k int) (queries, timeseries.Series) {
	windowMs := int64(seconds) * 1000
	bucketLen := 1000.0 / float64(k)
	q := make(queries)
	for ; len(data) >= 3; data = data[3:] {
		id := sqltemplate.ID(fmt.Sprintf("T%d", data[0]&3))
		p, r := int64(data[1]), int64(data[2])
		var a int64
		switch data[0] >> 2 & 7 {
		case 0: // before the window
			a = startMs - 1 - p*37
		case 1: // exactly at its start
			a = startMs
		case 2: // anywhere inside
			a = startMs + p*windowMs/256 + p%7
		case 3: // exactly on a second boundary
			a = startMs + 1000*(p%int64(seconds))
		case 4: // in the last millisecond of a second
			a = startMs + 1000*(p%int64(seconds)) + 999
		case 5: // in the last second
			a = startMs + windowMs - 1000 + p*3
		case 6: // exactly at the window's end
			a = startMs + windowMs
		default: // past it
			a = startMs + windowMs + p*11
		}
		off := float64(((a-startMs)%1000 + 1000) % 1000) // a's offset into its second
		var resp float64
		switch data[0] >> 5 {
		case 0:
			resp = 0
		case 1:
			resp = -float64(r) * 13.5
		case 2:
			resp = 1e-9
		case 3: // inside a bucket
			resp = float64(r) / 256 * bucketLen / 2
		case 4: // to a bucket boundary: the next one, or up to two further
			resp = (math.Floor(off/bucketLen)+1+float64(r%3))*bucketLen - off
		case 5: // to a second boundary: the next one, or up to two further
			resp = 1000 - off + float64(r%3)*1000
		case 6: // seconds long: across blocks of eight seconds
			resp = 1000 + float64(r)*100
		default:
			resp = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e300, 1e17, float64(10 * windowMs)}[r%6]
		}
		q[id] = append(q[id], obs{ArrivalMs: a, ResponseMs: resp})
	}
	observed := make(timeseries.Series, seconds)
	for i := range observed {
		observed[i] = float64((i*7 + len(q)) % 5)
	}
	return q, observed
}

// FuzzEstimateShortPath holds EstimateFrameBuckets to the map-keyed
// reference, which walks every bucket of every second an observation spans,
// and the other two estimators to theirs: same per-template series — the
// sparse one expanded — total and bucket selection, bit for bit, for every K
// and worker count, at window starts that are zero, an epoch, negative, and
// at or beyond the edge of exact millisecond arithmetic.
func FuzzEstimateShortPath(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
	// One of each arrival kind with a sub-bucket response.
	f.Add([]byte{0x60, 9, 200, 0x64, 0, 0, 0x68, 77, 31, 0x6c, 5, 255, 0x70, 12, 1, 0x74, 250, 9, 0x78, 0, 0, 0x7c, 3, 3}, uint8(3), uint8(1), uint8(1))
	// One of each response kind, arriving anywhere inside.
	f.Add([]byte{0x08, 40, 0, 0x29, 41, 7, 0x4a, 42, 0, 0x6b, 43, 128, 0x88, 44, 0, 0x89, 45, 1, 0x8a, 46, 2, 0xa8, 47, 0, 0xa9, 48, 2, 0xc8, 49, 70, 0xe8, 50, 0, 0xe9, 51, 1, 0xea, 52, 2, 0xeb, 53, 3, 0xe8, 54, 4, 0xe9, 55, 5}, uint8(2), uint8(2), uint8(0))
	// Boundary arrivals that end exactly on boundaries.
	f.Add([]byte{0x8c, 8, 0, 0xac, 8, 0, 0x90, 15, 0, 0xb0, 15, 0, 0x84, 0, 2, 0xa4, 0, 2, 0xb4, 255, 1}, uint8(1), uint8(2), uint8(2))
	f.Add([]byte{0x6c, 1, 255, 0x6c, 2, 255, 0xcc, 7, 90, 0xc0, 3, 200}, uint8(0), uint8(1), uint8(3))
	f.Add([]byte{0x68, 100, 100, 0x88, 101, 1, 0xa8, 102, 1}, uint8(3), uint8(0), uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, kSel, wSel, startSel uint8) {
		const seconds = 37 // not a multiple of the 8-second block grain
		if len(data) > 3*400 {
			data = data[:3*400]
		}
		k := []int{1, 3, 7, 10}[kSel%4]
		workers := []int{1, 2, 4}[wSel%3]
		startMs := []int64{0, 1_700_000_000_123, -7_500, maxExactMs - 20_000, 1 << 60}[startSel%5]
		raw, observed := shortPathCase(data, startMs, seconds, k)
		fr := frameFromQueries(raw, startMs, seconds)
		checkAllEstimators(t, fmt.Sprintf("k=%d workers=%d start=%d", k, workers, startMs), fr, observed, k, workers, cpufeat.AVX2)
	})
}

// TestSecondSpanClampsBeforeConverting: a response beyond int's range —
// +Inf, or finite like 1e300 ms — is active to the end of the window, a NaN
// or -Inf one never, on every platform: the end is clamped as a float, so no
// span depends on what converting an out-of-range float to int yields.
func TestSecondSpanClampsBeforeConverting(t *testing.T) {
	tests := []struct {
		name        string
		q           obs
		first, last int
	}{
		{"+Inf response", obs{ArrivalMs: 2500, ResponseMs: math.Inf(1)}, 2, 9},
		{"1e300 ms response", obs{ArrivalMs: 2500, ResponseMs: 1e300}, 2, 9},
		{"1e19 ms response", obs{ArrivalMs: 2500, ResponseMs: 1e19}, 2, 9},
		{"+Inf from before the window", obs{ArrivalMs: -4000, ResponseMs: math.Inf(1)}, 0, 9},
		{"NaN response", obs{ArrivalMs: 2500, ResponseMs: math.NaN()}, 2, -1},
		{"-Inf response", obs{ArrivalMs: 2500, ResponseMs: math.Inf(-1)}, 2, -1},
		{"-1e300 ms response", obs{ArrivalMs: 2500, ResponseMs: -1e300}, 2, -1},
		{"ends at the window's last millisecond", obs{ArrivalMs: 2500, ResponseMs: 7499}, 2, 9},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			first, last := secondSpan(tc.q.ArrivalMs, tc.q.ResponseMs, 0, 10)
			if first != tc.first || last != tc.last {
				t.Errorf("span = [%d,%d], want [%d,%d]", first, last, tc.first, tc.last)
			}
		})
	}

	// And through both estimators: one unbounded response adds a session
	// to every second from its own on, in the frame estimate as in the
	// reference.
	q := queries{"A": {{ArrivalMs: 3000, ResponseMs: math.Inf(1)}, {ArrivalMs: 3100, ResponseMs: 1e300}}, "B": {{ArrivalMs: 500, ResponseMs: 20}}}
	observed := make(timeseries.Series, 10)
	fr := frameFromQueries(q, 0, 10)
	for _, workers := range []int{1, 2} {
		fe := EstimateFrameBuckets(fr, observed, 10, workers)
		checkFrameEstimate(t, "unbounded responses", fr, fe, refEstimateBuckets(fr, observed, 10))
		pos, _ := fr.Pos("A")
		for sec, v := range dense(fe.PerTemplate[pos]) {
			if sec < 3 && v != 0 || sec > 3 && v != 2 {
				t.Errorf("workers=%d: second %d holds %v sessions of A, want none before second 3 and 2 after", workers, sec, v)
			}
		}
	}
}

// FuzzFillCompact drives one worker's stage with any sequence of additions
// and template ends and holds it to one dense series per template: whatever
// order a template's seconds were touched in — descending, twice, for a
// zero addend, summing back to zero — its compacted series is ascending and
// holds exactly the nonzero seconds (a NaN is one) behind the templates
// compacted before it, and the dense stage is zero again. Two bytes make one
// step: a second (15 of 16 values; the last ends the template) and a value.
func FuzzFillCompact(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0xff, 0, 9, 4, 4, 0, 4, 2, 1, 10, 1, 11, 1, 14, 7, 1, 7, 2, 6, 5, 6, 4})
	f.Add([]byte{0xff, 0, 0xff, 0, 14, 1, 0, 6, 0xff, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const seconds = 15
		values := []float64{0, math.NaN(), 1, 2.5, 2, -2, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-300, 5, -5, 0.1, 0.2, 7, -0.3}
		s := &fillScratch{dense: make([]float64, seconds)}
		model := []timeseries.Series{make(timeseries.Series, seconds)}
		var ends []int
		for ; len(data) >= 2; data = data[2:] {
			if sec := int(data[0] & 15); sec < seconds {
				v := values[data[1]&15]
				s.add(sec, v)
				model[len(model)-1][sec] += v
				continue
			}
			s.compact()
			ends = append(ends, len(s.val))
			model = append(model, make(timeseries.Series, seconds))
		}
		s.compact()
		ends = append(ends, len(s.val))
		if len(s.idx) != len(s.val) {
			t.Fatalf("%d seconds, %d values", len(s.idx), len(s.val))
		}
		start := 0
		for j, end := range ends {
			got := timeseries.Sparse{N: seconds, Idx: s.idx[start:end], Val: s.val[start:end]}
			for k, sec := range got.Idx {
				if got.Val[k] == 0 || (k > 0 && sec <= got.Idx[k-1]) {
					t.Fatalf("template %d: second %d after %v holds %v", j, sec, got.Idx[:k], got.Val[k])
				}
			}
			if !sameBits(dense(got), model[j]) {
				t.Fatalf("template %d: compacted %v / %v, dense %v", j, got.Idx, got.Val, model[j])
			}
			start = end
		}
		for sec, v := range s.dense {
			if math.Float64bits(v) != 0 {
				t.Fatalf("dense[%d] = %v after the last compact", sec, v)
			}
		}
	})
}
