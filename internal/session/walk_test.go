package session

import (
	"fmt"
	"math"
	"testing"

	"pinsql/internal/cpufeat"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// sameEstimate reports where two frame estimates differ in any bit: the
// bucket selection, the total, or a per-template series' seconds or values.
func sameEstimate(a, b *FrameEstimate) error {
	bitsEqual := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if fmt.Sprint(a.SelBucket) != fmt.Sprint(b.SelBucket) {
		return fmt.Errorf("bucket selections %v and %v", a.SelBucket, b.SelBucket)
	}
	if !bitsEqual(a.Total, b.Total) {
		return fmt.Errorf("totals %v and %v", a.Total, b.Total)
	}
	for pos := range a.PerTemplate {
		x, y := a.PerTemplate[pos], b.PerTemplate[pos]
		if x.N != y.N || fmt.Sprint(x.Idx) != fmt.Sprint(y.Idx) || !bitsEqual(x.Val, y.Val) {
			return fmt.Errorf("template %d: %v / %v and %v / %v", pos, x.Idx, x.Val, y.Idx, y.Val)
		}
	}
	return nil
}

// walkCase decodes fuzz bytes into a frame of observation groups, one a
// template: a byte gives a group's length, 0–35, so that every tail the
// kernel's vectors of four leave occurs, and each observation takes two
// more bytes, an arrival and a response parameter, or made-up ones once the
// bytes run out. Arrivals fall before the window, at negative times, inside
// it, on and just before second boundaries, at and past its end, 2⁵² ms
// past it and at the ends of int64;
// responses are zero, negative, NaN, ±Inf, huge, inside a bucket, to a
// bucket or second boundary, or seconds long.
func walkCase(data []byte, startMs int64, seconds, k int) *window.Frame {
	windowMs := int64(seconds) * 1000
	bucketLen := 1000.0 / float64(k)
	q := make(queries)
	for g := 0; len(data) > 0 && g < 40; g++ {
		id := sqltemplate.ID(fmt.Sprintf("T%02d", g))
		n := int(data[0]) % 36
		data = data[1:]
		q[id] = []obs{} // a group of length zero is a template too
		for o := 0; o < n; o++ {
			p, r := int64(o*37+g), byte(o*11+g*5)
			if len(data) >= 2 {
				p, r = int64(data[0]), data[1]
				data = data[2:]
			}
			var a int64
			switch p % 16 {
			case 0: // before the window
				a = startMs - 1 - p*53
			case 1: // at a negative time
				a = -1 - p*1009
			case 4: // on a second boundary
				a = startMs + 1000*(p%int64(seconds))
			case 5: // in a second's last millisecond
				a = startMs + 1000*(p%int64(seconds)) + 999
			case 6: // at the window's end
				a = startMs + windowMs
			case 7: // past it
				a = startMs + windowMs + p*11
			case 8: // 2⁵² ms past the start, whose low bits fall inside
				a = startMs + 1<<52 + p/16*97
			case 9: // the ends of int64
				a = math.MaxInt64 - p
			case 10:
				a = math.MinInt64 + p
			default: // anywhere inside
				a = startMs + p*windowMs/256 + p%7
			}
			off := float64(((a-startMs)%1000 + 1000) % 1000)
			var resp float64
			switch r >> 4 {
			case 0:
				resp = 0
			case 1:
				resp = -float64(r&15) * 13.5
			case 2:
				resp = math.NaN()
			case 3:
				resp = math.Inf(int(r&1)*2 - 1)
			case 4:
				resp = []float64{1e300, -1e300, 1e17, float64(10 * windowMs)}[r&3]
			case 5: // to a bucket boundary: the next one, or up to two further
				resp = (math.Floor(off/bucketLen)+1+float64(r%3))*bucketLen - off
			case 6: // to a second boundary
				resp = 1000 - off + float64(r%3)*1000
			case 7: // seconds long
				resp = 1000 + float64(r&15)*700
			default: // inside a bucket, mostly
				resp = float64(r&15) / 16 * bucketLen
			}
			q[id] = append(q[id], obs{ArrivalMs: a, ResponseMs: resp})
		}
	}
	return frameFromQueries(q, startMs, seconds)
}

// FuzzBucketWalk holds the kernel to the Go walk it stands in for: the
// bucketed estimate and the whole-second one, each on the kernel and in
// Go, agree in every bit, for a K that divides 1000 and ones that do not
// (where both are the Go walk), at window starts that are zero, an epoch,
// negative, and beyond exact millisecond arithmetic.
func FuzzBucketWalk(f *testing.F) {
	if !cpufeat.AVX2 {
		f.Skip("the CPU lacks AVX2 or the OS does not save its registers: no kernel to hold to the Go walk")
	}
	lengths := make([]byte, 36)
	for i := range lengths {
		lengths[i] = byte(i)
	}
	f.Add(lengths, uint8(0), uint8(0), uint8(0))
	f.Add(lengths, uint8(1), uint8(1), uint8(1))
	f.Add(lengths, uint8(3), uint8(2), uint8(2))
	f.Add([]byte{4, 8, 0x88, 8, 0x88, 8, 0x88, 8, 0x88}, uint8(1), uint8(0), uint8(0)) // 2⁵² ms late, low bits in second 0
	f.Add([]byte{5, 2, 0x80, 3, 0x81, 10, 0x90, 11, 0x00, 19, 0x25, 26, 0x5c, 7}, uint8(0), uint8(1), uint8(2))
	f.Add([]byte{9, 0, 0x20, 1, 0x30, 4, 0x31, 5, 0x40, 6, 0x41, 7, 0x42, 12, 0x60, 13, 0x70, 2, 0x43}, uint8(4), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, kSel, wSel, startSel uint8) {
		const seconds = 37 // not a multiple of the 8-second block grain
		if len(data) > 1200 {
			data = data[:1200]
		}
		k := []int{10, 1, 8, 125, 3, 7}[kSel%6]
		workers := []int{1, 2, 3}[wSel%3]
		startMs := []int64{0, 1_700_000_000_123, -7_500, maxExactMs - 20_000}[startSel%4]
		fr := walkCase(data, startMs, seconds, k)
		observed := make(timeseries.Series, seconds)
		for i := range observed {
			observed[i] = float64(i*7%5) * 0.7
		}
		label := fmt.Sprintf("k=%d workers=%d start=%d", k, workers, startMs)
		if err := sameEstimate(estimateFrameBuckets(fr, observed, k, workers, true), estimateFrameBuckets(fr, observed, k, workers, false)); err != nil {
			t.Fatalf("%s: buckets on the kernel and in Go differ: %v", label, err)
		}
		if err := sameEstimate(estimateFrameNoBuckets(fr, true), estimateFrameNoBuckets(fr, false)); err != nil {
			t.Fatalf("%s: whole seconds on the kernel and in Go differ: %v", label, err)
		}
	})
}

// TestDefaultWindowTakesKernel fails when a window as the pipeline cuts it,
// at the default K, stops taking the kernel on a CPU that runs it — the
// walks would keep their bits and quietly lose their speed — and checks
// that the kernel settles what it should: every observation inside one
// bucket in pass 1, and in pass 3 the one of them in its selected period.
func TestDefaultWindowTakesKernel(t *testing.T) {
	for _, fr := range []*window.Frame{
		{StartMs: 0, Seconds: 2100},
		{StartMs: 1_700_000_000_000, Seconds: 600},
	} {
		if !kernelFits(fr, DefaultBuckets) {
			t.Errorf("a %d s window from %d ms at K = %d does not fit the kernel", fr.Seconds, fr.StartMs, DefaultBuckets)
		}
	}
	if !cpufeat.AVX2 {
		t.Skip("the CPU lacks AVX2 or the OS does not save its registers: no kernel to run")
	}

	// Eight observations, one a second from second 1 on, 40 ms each in
	// buckets 0, 3, 6, 9, 2, 5, 8 and 1 of their seconds, in a window that
	// starts at an epoch.
	const startMs, k, seconds = 1_700_000_000_000, DefaultBuckets, 10
	bucketLen := 1000.0 / k
	var arr [8]int64
	var resp [8]float64
	for i := range arr {
		arr[i] = startMs + int64(1000*(i+1)) + int64(i*3%k)*100 + 20
		resp[i] = 40
	}
	var cells [walkChunk]int32
	var vals [walkChunk]float64
	bucketCells(&arr[0], &resp[0], len(arr), startMs, 0, seconds*1000, startMs, bucketLen, 1/bucketLen, &cells, &vals)
	for i := range arr {
		if want := int32((i+1)*k + i*3%k); cells[i] != want || vals[i] != 0.4 {
			t.Errorf("pass 1, observation %d: cell %d holding %v, want %d holding 0.4", i, cells[i], vals[i], want)
		}
	}
	// Pass 3 with every second's period its bucket 3: observation 1 alone
	// meets its period, and none leaves the direct path.
	periodLo := make([]float64, seconds)
	for sec := range periodLo {
		periodLo[sec] = startMs + float64(sec*1000) + 3*bucketLen
	}
	meets, spans := periodMeets(&arr[0], &resp[0], len(arr), startMs, seconds*1000, startMs, &periodLo[0], bucketLen)
	if meets != 1<<1 || spans != 0 {
		t.Errorf("pass 3: meets %08b, spans %08b, want 00000010 and none", meets, spans)
	}
}
