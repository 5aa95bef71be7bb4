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
// session series per template, and a random instance series.
func randomFrameSessions(rng *rand.Rand, templates, seconds int) (*window.Frame, []timeseries.Series, timeseries.Series) {
	sessions := make(map[sqltemplate.ID]timeseries.Series, templates)
	for i := 0; i < templates; i++ {
		s := make(timeseries.Series, seconds)
		for j := range s {
			s[j] = rng.Float64() * 10
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
// instance's side of the correlations was prepared once per case: both
// correlations recompute everything of instSession and weight for every
// template. It is the oracle RankFrame's level scores are held to.
func scoreTemplateRef(s, instSession, weight, ratio timeseries.Series) (trend, scaleTrend float64) {
	trend, _ = timeseries.WeightedCorr(s, instSession, weight)
	if s.DivInto(ratio, instSession) == nil {
		scaleTrend, _ = timeseries.Corr(ratio, instSession)
	}
	return trend, scaleTrend
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
	for seed := int64(0); seed < 28; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, sessions, inst := randomFrameSessions(rng, 2+rng.Intn(10), seconds)
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
			for _, g := range RankFrame(f, sessions, inst, as, ae, opt) {
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
