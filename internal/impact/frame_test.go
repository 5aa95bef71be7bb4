package impact

// Differential test: RankFrame's level scores against scoring each template
// on its own.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// randomFrameSessions builds a frame (sessionFrame's layout) with one random
// session series per template — idle in most seconds when idle is set, as an
// estimated session is — and a random instance series.
func randomFrameSessions(rng *rand.Rand, templates, seconds int, idle bool) (*window.Frame, []timeseries.Series, timeseries.Series) {
	sessions := make(map[sqltemplate.ID]timeseries.Series, templates)
	for i := 0; i < templates; i++ {
		s := make(timeseries.Series, seconds)
		for j := range s {
			if !idle || rng.Intn(5) == 0 {
				s[j] = rng.Float64() * 10
			}
		}
		sessions[sqltemplate.ID(fmt.Sprintf("T%02d", i))] = s
	}
	f, byPos := sessionFrame(sessions)
	inst := make(timeseries.Series, seconds)
	for j := range inst {
		inst[j] = rng.Float64() * float64(templates)
	}
	return f, byPos, inst
}

// scoreTemplateRef is RankFrame's per-template scoring as it was before the
// instance's side of the correlations was prepared once per case and a
// session was held as its nonzero seconds: both correlations recompute
// everything of instSession and weight for every template, over the dense
// session. It is the oracle RankFrame's level scores are held to.
func scoreTemplateRef(s, instSession, weight, ratio timeseries.Series) (trend, scaleTrend float64) {
	trend = weightedCorr(s, instSession, weight)
	if len(s) == len(instSession) && len(s) == len(ratio) {
		for i := range s { // s/instSession, an idle second contributing zero
			ratio[i] = 0
			if instSession[i] != 0 {
				ratio[i] = s[i] / instSession[i]
			}
		}
		scaleTrend, _ = timeseries.Corr(ratio, instSession)
	}
	return trend, scaleTrend
}

// weightedCorr is §V's weighted Pearson correlation as written (the oracle
// of timeseries' own tests, which a test of this package cannot reach); 0
// on a length mismatch.
func weightedCorr(x, y, w timeseries.Series) float64 {
	if len(x) != len(y) || len(x) != len(w) || len(x) == 0 {
		return 0
	}
	wsum := w.Sum()
	if wsum == 0 {
		return 0
	}
	var mx, my float64
	for i := range x {
		mx += w[i] * x[i]
		my += w[i] * y[i]
	}
	mx /= wsum
	my /= wsum
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += w[i] * dx * dy
		sxx += w[i] * dx * dx
		syy += w[i] * dy * dy
	}
	flat := func(ss, m float64) bool { return ss <= 1e-18*wsum*(m*m+1) }
	c := sxy / math.Sqrt(sxx*syy)
	if flat(sxx, mx) || flat(syy, my) || c != c {
		return 0
	}
	return max(-1, min(1, c))
}

// TestRankFrameLevelScoresMatchPerTemplateScoring: every template's trend
// and scale-trend score has the bits of the per-template scoring, on random
// sessions and on the ones a shared preparation could get wrong — idle
// seconds in the instance session (zero denominators), a constant instance
// session, constant and all-zero template sessions, NaN and ±Inf on either
// side, a weight of zero (a window outside the series with ks → 0), and a
// session of the wrong length next to good ones.
func TestRankFrameLevelScoresMatchPerTemplateScoring(t *testing.T) {
	const seconds = 48
	nan, inf := math.NaN(), math.Inf(1)
	spoil := []func(rng *rand.Rand, sessions []timeseries.Series, inst timeseries.Series){
		func(*rand.Rand, []timeseries.Series, timeseries.Series) {},
		func(rng *rand.Rand, _ []timeseries.Series, inst timeseries.Series) {
			for i := range inst {
				if rng.Intn(3) == 0 {
					inst[i] = 0
				}
			}
		},
		func(_ *rand.Rand, _ []timeseries.Series, inst timeseries.Series) {
			for i := range inst {
				inst[i] = 4
			}
		},
		func(_ *rand.Rand, sessions []timeseries.Series, _ timeseries.Series) {
			for i := range sessions[0] {
				sessions[0][i] = 2.5
			}
			clear(sessions[len(sessions)-1])
		},
		func(rng *rand.Rand, sessions []timeseries.Series, inst timeseries.Series) {
			sessions[0][rng.Intn(seconds)] = nan
			sessions[len(sessions)-1][rng.Intn(seconds)] = inf
			inst[rng.Intn(seconds)] = -inf
		},
		func(_ *rand.Rand, _ []timeseries.Series, inst timeseries.Series) { inst[seconds/2] = nan },
		func(_ *rand.Rand, sessions []timeseries.Series, _ timeseries.Series) {
			sessions[0] = sessions[0][:seconds-1]
		},
	}
	for seed := int64(0); seed < 56; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, sessions, inst := randomFrameSessions(rng, 2+rng.Intn(10), seconds, seed >= 28)
		spoil[seed%int64(len(spoil))](rng, sessions, inst)
		opt := DefaultOptions()
		as, ae := seconds/4, seconds/2
		if seed%5 == 4 {
			opt.SmoothKs, as, ae = 0, seconds+5, seconds+9 // indicator of an empty window: Σw = 0
		}
		weight := timeseries.SigmoidWeight(len(inst), as, ae, opt.SmoothKs)
		ratio := make(timeseries.Series, len(inst))
		for _, workers := range []int{1, 3} {
			opt.Workers = workers
			for _, g := range RankFrame(f, sparse(sessions), inst, as, ae, opt) {
				if f.Templates[g.Pos].Meta.ID != g.ID {
					t.Fatalf("seed %d w=%d: Pos %d does not point at %s", seed, workers, g.Pos, g.ID)
				}
				trend, scaleTrend := scoreTemplateRef(sessions[g.Pos], inst, weight, ratio)
				if math.Float64bits(g.Trend) != math.Float64bits(trend) || math.Float64bits(g.ScaleTrend) != math.Float64bits(scaleTrend) {
					t.Fatalf("seed %d w=%d template %s: trend %v scale-trend %v, per-template scoring gives %v and %v",
						seed, workers, g.ID, g.Trend, g.ScaleTrend, trend, scaleTrend)
				}
			}
		}
	}
}

// TestRankFrameInstanceSessionOfAnotherLength: with an instance session
// shorter or longer than the frame's seconds nothing correlates — every
// trend and scale-trend score is 0, so is α, and the ranking is the ID
// order — while the scale level, which reads no instance session, stands.
// No session second at or past the instance session's end is scattered.
func TestRankFrameInstanceSessionOfAnotherLength(t *testing.T) {
	const seconds = 40
	rng := rand.New(rand.NewSource(9))
	f, sessions, _ := randomFrameSessions(rng, 6, seconds, true)
	for pos := range sessions {
		sessions[pos][seconds-1] = 1 + float64(pos) // a last second to scatter out of bounds
	}
	want := RankFrame(f, sparse(sessions), make(timeseries.Series, seconds), 10, 20, DefaultOptions())
	for _, n := range []int{seconds - 7, seconds - 1, seconds + 1, seconds + 9} {
		inst := make(timeseries.Series, n)
		for i := range inst {
			inst[i] = rng.Float64() * 20
		}
		for _, workers := range []int{1, 3} {
			opt := DefaultOptions()
			opt.Workers = workers
			got := RankFrame(f, sparse(sessions), inst, 10, 20, opt)
			for i, g := range got {
				if g.Trend != 0 || g.ScaleTrend != 0 || g.Impact != 0 {
					t.Errorf("n=%d w=%d: %s scores trend %v scale-trend %v impact %v, want zeros", n, workers, g.ID, g.Trend, g.ScaleTrend, g.Impact)
				}
				if g.ID != want[i].ID || g.Scale != want[i].Scale {
					t.Errorf("n=%d w=%d: rank %d is %s (scale %v), want %s (%v)", n, workers, i, g.ID, g.Scale, want[i].ID, want[i].Scale)
				}
			}
		}
	}
}
