package timeseries

import (
	"math"
	"sort"
)

// TukeyBounds returns the outlier fences of Tukey's rule with multiplier k
// (1.5 for "outliers", 3 for "far out"; the paper applies Tukey's rule for
// efficient history-trend anomaly detection, §VI).
func (s Series) TukeyBounds(k float64) (lo, hi float64) {
	sorted := s.Clone()
	sort.Float64s(sorted)
	q1, q3 := quantileSorted(sorted, 0.25), quantileSorted(sorted, 0.75)
	iqr := q3 - q1
	return q1 - k*iqr, q3 + k*iqr
}

// robustScale returns the MAD-based robust scale estimate about the
// series' median med (MAD times the 1.4826 consistency constant for normal
// data), falling back to the standard deviation when the MAD is zero.
func (s Series) robustScale(med float64) float64 {
	scale := s.madAbout(med) * 1.4826
	if scale == 0 {
		scale = s.Std()
	}
	return scale
}

// SpikeDirection classifies the sign of a detected excursion.
type SpikeDirection int

// Spike directions.
const (
	SpikeUp SpikeDirection = iota + 1
	SpikeDown
)

// Spike is a contiguous run of points whose robust z-score exceeds a
// threshold in one direction.
type Spike struct {
	Start, End int // half-open index range [Start, End)
	Direction  SpikeDirection
	Peak       float64 // most extreme z-score in the run
}

// DetectSpikes finds maximal runs where |robust z| ≥ threshold. Runs mixing
// directions are split. This is the "spike up/down" anomalous feature of the
// Basic Perception Layer (§IV-B).
func (s Series) DetectSpikes(threshold float64) []Spike {
	if len(s) == 0 {
		return nil
	}
	// Robust z-scores: all zero when the scale is (a constant series).
	med := s.Median()
	z := make(Series, len(s))
	if scale := s.robustScale(med); scale != 0 {
		for i, v := range s {
			z[i] = (v - med) / scale
		}
	}
	var spikes []Spike
	i := 0
	for i < len(z) {
		switch {
		case z[i] >= threshold:
			j, peak := i, z[i]
			for j < len(z) && z[j] >= threshold {
				if z[j] > peak {
					peak = z[j]
				}
				j++
			}
			spikes = append(spikes, Spike{Start: i, End: j, Direction: SpikeUp, Peak: peak})
			i = j
		case z[i] <= -threshold:
			j, peak := i, z[i]
			for j < len(z) && z[j] <= -threshold {
				if z[j] < peak {
					peak = z[j]
				}
				j++
			}
			spikes = append(spikes, Spike{Start: i, End: j, Direction: SpikeDown, Peak: peak})
			i = j
		default:
			i++
		}
	}
	return spikes
}

// LevelShift is a sustained mean change detected at index At: the mean of
// the window after At differs from the mean of the window before it by more
// than threshold robust scales ("level shift up/down", §IV-B).
type LevelShift struct {
	At        int
	Direction SpikeDirection
	Delta     float64 // after-mean minus before-mean
}

// DetectLevelShifts scans s with symmetric windows of the given size and
// reports points where the windowed mean jumps by at least threshold times
// the robust scale of the series. Adjacent detections are collapsed to the
// point of largest |Delta|.
func (s Series) DetectLevelShifts(window int, threshold float64) []LevelShift {
	if window <= 0 || len(s) < 2*window {
		return nil
	}
	// Scale from the first differences: a level shift inflates the raw
	// series' MAD but barely moves the MAD of point-to-point changes, so
	// this stays sensitive even when the shift dominates the trace.
	diff := make(Series, len(s)-1)
	for i := 1; i < len(s); i++ {
		diff[i-1] = s[i] - s[i-1]
	}
	scale := diff.robustScale(diff.Median())
	if scale == 0 {
		return nil
	}
	minDelta := threshold * scale

	var shifts []LevelShift
	best := LevelShift{}
	inRun := false
	flush := func() {
		if inRun {
			shifts = append(shifts, best)
			inRun = false
		}
	}
	for t := window; t+window <= len(s); t++ {
		before := Series(s[t-window : t]).Mean()
		after := Series(s[t : t+window]).Mean()
		delta := after - before
		if math.Abs(delta) < minDelta {
			flush()
			continue
		}
		dir := SpikeUp
		if delta < 0 {
			dir = SpikeDown
		}
		if inRun && dir == best.Direction {
			if math.Abs(delta) > math.Abs(best.Delta) {
				best = LevelShift{At: t, Direction: dir, Delta: delta}
			}
			continue
		}
		flush()
		best = LevelShift{At: t, Direction: dir, Delta: delta}
		inRun = true
	}
	flush()
	return shifts
}
