package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/core"
	"pinsql/internal/rank"
)

// AblationVariant names one Fig. 6 pipeline variant and its configuration.
type AblationVariant struct {
	Name string
	Cfg  core.Config
}

// Fig6Variants returns the paper's ablations: the full system first, then
// each component removed in turn.
func Fig6Variants() []AblationVariant {
	mk := func(name string, mod func(*core.Config)) AblationVariant {
		cfg := core.DefaultConfig()
		mod(&cfg)
		return AblationVariant{Name: name, Cfg: cfg}
	}
	return []AblationVariant{
		mk("PinSQL", func(*core.Config) {}),
		mk("w/o Cumulative Threshold", func(c *core.Config) { c.NoCumulativeThreshold = true }),
		mk("w/o Direct Cause SQL Ranking", func(c *core.Config) { c.NoDirectCauseRanking = true }),
		mk("w/o History Trend Verification", func(c *core.Config) { c.NoHistoryVerification = true }),
		mk("w/o Weighted Final Score", func(c *core.Config) { c.NoWeightedFinalScore = true }),
		mk("w/o Estimate Session", func(c *core.Config) { c.NoEstimateSession = true }),
		mk("w/o Scale-level Score", func(c *core.Config) { c.NoScaleLevel = true }),
		mk("w/o Trend-level Score", func(c *core.Config) { c.NoTrendLevel = true }),
		mk("w/o Scale-trend-level Score", func(c *core.Config) { c.NoScaleTrendLevel = true }),
	}
}

// Fig6Row is one variant's evaluation.
type Fig6Row struct {
	Variant string
	R       rank.Eval
	H       rank.Eval
}

// Fig6 is the ablation study result.
type Fig6 struct {
	Rows  []Fig6Row
	Cases int
}

// Fig6 reduces the evaluation to the ablation study: one row per variant.
func (e *Evaluation) Fig6() *Fig6 {
	out := &Fig6{Cases: len(e.cases)}
	for i, v := range e.variants {
		row := Fig6Row{Variant: v.Name}
		row.R, row.H = variantEval(e.cases, i)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Format renders both panels of Fig. 6 as text.
func (f *Fig6) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6: ablation study (%d cases)\n", f.Cases)
	fmt.Fprintf(&b, "%-32s | %6s %6s %6s | %6s %6s %6s\n",
		"Variant", "R-H@1", "R-H@5", "R-MRR", "H-H@1", "H-H@5", "H-MRR")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-32s | %6.1f %6.1f %6.2f | %6.1f %6.1f %6.2f\n",
			r.Variant, 100*r.R.H1, 100*r.R.H5, r.R.MRR, 100*r.H.H1, 100*r.H.H5, r.H.MRR)
	}
	return b.String()
}
