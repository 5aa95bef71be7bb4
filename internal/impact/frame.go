package impact

import (
	"slices"

	"pinsql/internal/parallel"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// RankFrame scores every template of a window frame and returns them sorted
// by descending impact. sessions[pos] is the estimated individual active
// session of frame template pos (one entry per template, as produced by
// session.EstimateFrameBuckets); instSession is the instance's
// active-session metric; [as, ae) is the anomaly window in series indexes.
// A session whose length is not instSession's correlates with nothing: its
// trend and scale-trend scores are 0.
// Scoring iterates the frame's ByID permutation — ascending template ID — so
// masses, normalization, α/β selection and the final stable sort depend on
// the template IDs, not on the frame's layout or the worker count. Each
// returned Score carries its frame position for index-first downstream
// stages.
func RankFrame(f *window.Frame, sessions []timeseries.Sparse, instSession timeseries.Series, as, ae int, opt Options) []Score {
	if len(sessions) == 0 {
		return nil
	}
	n := len(instSession)
	weight := timeseries.SigmoidWeight(n, as, ae, opt.SmoothKs)

	// Scale-level: anomaly-window session mass per template, min-max
	// normalized across templates and mapped into [-1, 1].
	masses := make(timeseries.Series, len(f.ByID))
	for i, pos := range f.ByID {
		masses[i] = sessions[pos].RangeSum(as, ae)
	}
	norm := masses.MinMax()

	// The instance's side of every correlation below is the case's, not a
	// template's: prepared once, scored against per template.
	instWeighted := timeseries.NewWeightedCorrRef(instSession, weight)
	inst := timeseries.NewCorrRef(instSession)

	scores := make([]Score, len(f.ByID))
	parallel.Blocks(opt.Workers, len(f.ByID), func(lo, hi int) {
		// One dense scratch per chunk: each session is scattered into it,
		// scored and cleared out of it.
		scratch := make(timeseries.Series, n)
		for i := lo; i < hi; i++ {
			pos := f.ByID[i]
			s := sessions[pos]
			trend, _ := instWeighted.Corr(s, scratch)
			scaleTrend, _ := inst.CorrRatio(s, scratch)
			scores[i] = Score{
				ID:         f.Templates[pos].Meta.ID,
				Pos:        int(pos),
				Trend:      trend,
				Scale:      2*norm[i] - 1,
				ScaleTrend: scaleTrend,
			}
		}
	})
	var maxIdx int
	for i := range masses {
		if masses[i] > masses[maxIdx] {
			maxIdx = i
		}
	}

	alpha, beta := 1.0, 1.0
	if opt.WeightedScore {
		a, _ := inst.CorrSparse(sessions[f.ByID[maxIdx]], make(timeseries.Series, n))
		alpha, beta = a, -a
	}
	for i := range scores {
		var impact float64
		if opt.UseTrend {
			impact += beta * scores[i].Trend
		}
		if opt.UseScaleTrend {
			impact += scores[i].ScaleTrend
		}
		if opt.UseScale {
			impact += alpha * scores[i].Scale
		}
		scores[i].Impact = impact
	}

	slices.SortStableFunc(scores, func(a, b Score) int { return descending(a.Impact, b.Impact) })
	return scores
}

// descending orders x before y when x > y and leaves two that compare
// neither way — ties, a NaN — in their order. The stable sort reads only
// cmp < 0, so it orders as sort.SliceStable does with x > y as its less.
func descending(x, y float64) int {
	switch {
	case x > y:
		return -1
	case y > x:
		return 1
	}
	return 0
}
