package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTukeyBounds(t *testing.T) {
	s := Series{1, 2, 3, 4, 5, 6, 7, 8}
	lo, hi := s.TukeyBounds(1.5)
	// Q1 = 2.75, Q3 = 6.25, IQR = 3.5 → fences at -2.5 and 11.5.
	if !almostEqual(lo, -2.5, 1e-9) || !almostEqual(hi, 11.5, 1e-9) {
		t.Errorf("bounds = (%v, %v), want (-2.5, 11.5)", lo, hi)
	}
}

func TestDetectSpikes(t *testing.T) {
	s := make(Series, 60)
	for i := range s {
		s[i] = 10 + float64(i%2)
	}
	for i := 30; i < 35; i++ {
		s[i] = 100
	}
	s[50] = -80
	spikes := s.DetectSpikes(6)
	if len(spikes) != 2 {
		t.Fatalf("spikes = %+v, want 2", spikes)
	}
	up := spikes[0]
	if up.Direction != SpikeUp || up.Start != 30 || up.End != 35 {
		t.Errorf("up spike = %+v", up)
	}
	down := spikes[1]
	if down.Direction != SpikeDown || down.Start != 50 || down.End != 51 {
		t.Errorf("down spike = %+v", down)
	}
	if up.Peak <= 0 || down.Peak >= 0 {
		t.Errorf("peaks = %v / %v", up.Peak, down.Peak)
	}
}

func TestDetectSpikesNone(t *testing.T) {
	s := Series{1, 2, 1, 2, 1, 2}
	if got := s.DetectSpikes(10); len(got) != 0 {
		t.Errorf("spikes = %+v, want none", got)
	}
}

func TestDetectLevelShifts(t *testing.T) {
	s := make(Series, 120)
	for i := range s {
		if i < 60 {
			s[i] = 10 + float64(i%2)
		} else {
			s[i] = 40 + float64(i%2)
		}
	}
	shifts := s.DetectLevelShifts(10, 3)
	if len(shifts) == 0 {
		t.Fatal("expected a level shift")
	}
	found := false
	for _, sh := range shifts {
		if sh.Direction == SpikeUp && sh.At >= 50 && sh.At <= 70 {
			found = true
		}
	}
	if !found {
		t.Errorf("shifts = %+v, want an up-shift near t=60", shifts)
	}
}

func TestDetectLevelShiftsDegenerate(t *testing.T) {
	if got := (Series{1, 2}).DetectLevelShifts(5, 3); got != nil {
		t.Errorf("short series shifts = %v", got)
	}
	flat := make(Series, 50)
	if got := flat.DetectLevelShifts(5, 3); got != nil {
		t.Errorf("flat series shifts = %v", got)
	}
}

// step returns n samples at lo then n at hi.
func step(n int, lo, hi float64) Series {
	s := make(Series, 2*n)
	for i := range s {
		s[i] = lo
		if i >= n {
			s[i] = hi
		}
	}
	return s
}

// TestDetectSpikesRows pins the spike detector on the inputs that decide
// its scale: the expected runs and peaks were printed at the commit before
// the median was computed once per call, so any drift in a bit fails.
func TestDetectSpikesRows(t *testing.T) {
	for _, tc := range []struct {
		name      string
		s         Series
		threshold float64
		want      string
	}{
		{"one sample", Series{7}, 3, ""},
		{"all equal", Series{7, 7, 7, 7, 7, 7, 7, 7}, 3, ""},
		{"zero MAD falls back to Std", Series{5, 5, 5, 5, 5, 5, 5, 100}, 2, "up[7,8)@3.0237157840738176"},
		{"zero MAD, Std too large for the threshold", Series{5, 5, 5, 5, 5, 5, 5, 100}, 3.5, ""},
		{"ties at the median", Series{1, 2, 2, 3, 3, 3, 2, 2, 40, 3, 1, -30}, 5, "up[8,9)@25.630648860110618 down[11,12)@-21.583704303251046"},
		{"interpolated median", Series{1, 2, 3, 4, 90, 91, -60, 4}, 3, "up[4,6)@29.50897072710104 down[6,7)@-21.415081613381897"},
		{"adjacent runs of opposite sign split", Series{10, 11, 10, 11, 10, 80, 85, -70, -60, 11, 10, 11, 10, 11}, 6, "up[5,7)@100.49912316201268 down[7,9)@-108.59301227573182"},
		{"run reaches the last sample", Series{3, 4, 3, 4, 3, 4, 3, 4, 3, 50, 60}, 4, "up[9,11)@37.77148253068933"},
		{"negative base level", Series{-10, -11, -10, -11, -10, -11, -10, -50, -11, -10}, 6, "down[7,8)@-53.28476999865102"},
	} {
		var got string
		for _, sp := range tc.s.DetectSpikes(tc.threshold) {
			dir := "up"
			if sp.Direction == SpikeDown {
				dir = "down"
			}
			got += fmt.Sprintf("%s[%d,%d)@%v ", dir, sp.Start, sp.End, sp.Peak)
		}
		if got = strings.TrimSpace(got); got != tc.want {
			t.Errorf("%s: spikes = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestDetectLevelShiftsRows is TestDetectSpikesRows for the level-shift
// detector, whose scale comes from the first differences.
func TestDetectLevelShiftsRows(t *testing.T) {
	upDown := append(step(20, 10, 50), step(20, 50, 20)[20:]...)
	noisy := make(Series, 90)
	for i := range noisy {
		noisy[i] = 20 + float64(i%5) - float64(i%3)
		if i >= 45 {
			noisy[i] += 30
		}
	}
	for _, tc := range []struct {
		name      string
		s         Series
		window    int
		threshold float64
		want      string
	}{
		{"shorter than two windows", step(20, 10, 50)[:19], 10, 3, ""},
		{"exactly two windows", step(10, 10, 50), 10, 3, "up@10(40)"},
		{"all equal", step(20, 7, 7), 5, 3, ""},
		{"zero MAD of the differences falls back to Std", step(20, 10, 50), 5, 3, "up@20(40)"},
		{"up then down", upDown, 5, 3, "up@20(40) down@40(-30)"},
		{"noisy step, run collapses to the largest delta", noisy, 10, 3, "up@45(30.200000000000003)"},
		{"noisy step, threshold above it", noisy, 10, 30, ""},
		{"down", step(30, 5, -5), 8, 2, "down@30(-10)"},
	} {
		var got string
		for _, sh := range tc.s.DetectLevelShifts(tc.window, tc.threshold) {
			dir := "up"
			if sh.Direction == SpikeDown {
				dir = "down"
			}
			got += fmt.Sprintf("%s@%d(%v) ", dir, sh.At, sh.Delta)
		}
		if got = strings.TrimSpace(got); got != tc.want {
			t.Errorf("%s: shifts = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// Property: widening the Tukey multiplier never narrows the fences, so it
// never finds more outliers.
func TestTukeyMonotoneProperty(t *testing.T) {
	f := func(vals []float64, k1, k2 float64) bool {
		s := sanitize(vals)
		a := absMod(k1, 5)
		b := absMod(k2, 5)
		if a > b {
			a, b = b, a
		}
		loA, hiA := s.TukeyBounds(a)
		loB, hiB := s.TukeyBounds(b)
		return loB <= loA && hiB >= hiA
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Property: every spike's index range is valid and within bounds, and spike
// runs never overlap.
func TestSpikeRangesProperty(t *testing.T) {
	f := func(vals []float64) bool {
		s := sanitize(vals)
		spikes := s.DetectSpikes(3)
		prevEnd := 0
		for _, sp := range spikes {
			if sp.Start < prevEnd || sp.End <= sp.Start || sp.End > len(s) {
				return false
			}
			prevEnd = sp.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func absMod(v, m float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	return math.Abs(math.Mod(v, m))
}
