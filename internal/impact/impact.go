// Package impact implements PinSQL's High-impact SQL Identification Module
// (§V): ranking SQL templates by how strongly they drive the instance's
// active-session metric during an anomaly, by fusing three level scores:
//
//   - trend-level: weighted Pearson correlation between the template's
//     individual active session and the instance session, with a
//     sigmoid weight emphasizing the anomaly period;
//   - scale-level: the template's share of total session mass inside the
//     anomaly window, min-max normalized across templates into [-1, 1];
//   - scale-trend-level: correlation between the template's session share
//     (sessionQ/session) and the instance session, rewarding templates
//     whose share grows exactly when the metric is anomalous.
//
// The three scores fuse into a weighted final score
//
//	impact(Q) = β·trend(Q) + scale_trend(Q) + α·scale(Q)
//
// with α = corr(session_Qmax, session) for the template of largest scale
// and β = −α: when the biggest template itself explains the session curve,
// scale is trusted; when it does not (a huge stable-traffic template),
// trend takes over.
package impact

import "pinsql/internal/sqltemplate"

// DefaultSmoothKs is the paper's smooth factor k_s = 30 (§VIII-A).
const DefaultSmoothKs = 30

// Options tunes the module; the Use* flags exist for the Fig. 6 ablations.
type Options struct {
	SmoothKs      float64
	UseTrend      bool // include β·trend(Q)
	UseScale      bool // include α·scale(Q)
	UseScaleTrend bool // include scale_trend(Q)
	// WeightedScore enables the adaptive α/β weights; disabled, both are
	// the constant 1 ("PinSQL w/o Weighted Final Score").
	WeightedScore bool
	// Workers bounds the per-template scoring fan-out: 1 is the
	// sequential path, <= 0 means GOMAXPROCS. Scores land in an
	// index-ordered slice, so the ranking is identical for every value.
	Workers int
}

// Score is one template's H-SQL scoring breakdown.
type Score struct {
	ID         sqltemplate.ID
	Pos        int // frame position
	Trend      float64
	Scale      float64
	ScaleTrend float64
	Impact     float64
}
