package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/rank"
	"pinsql/internal/sqltemplate"
)

// AblationVariant names one Fig. 6 pipeline variant and its configuration.
type AblationVariant struct {
	Name string
	Cfg  core.Config
}

// Fig6Variants returns the paper's ablations: the full system plus each
// component removed in turn.
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

// RunFig6 evaluates every ablation variant over one shared corpus.
func RunFig6(opt cases.Options) (*Fig6, error) {
	variants := Fig6Variants()
	rRank := make([][][]sqltemplate.ID, len(variants))
	hRank := make([][][]sqltemplate.ID, len(variants))
	var rTruth, hTruth []map[sqltemplate.ID]bool

	err := cases.Stream(opt, func(lab *cases.Labeled) error {
		rTruth = append(rTruth, lab.RSQLs)
		hTruth = append(hTruth, lab.HSQLs)
		fr := lab.Case.Frame
		for i, v := range variants {
			d := core.DiagnoseFrame(lab.Case, fr, v.Cfg)
			rRank[i] = append(rRank[i], d.RSQLIDs())
			hRank[i] = append(hRank[i], d.HSQLIDs())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &Fig6{Cases: len(rTruth)}
	for i, v := range variants {
		out.Rows = append(out.Rows, Fig6Row{
			Variant: v.Name,
			R:       rank.Evaluate(rRank[i], rTruth),
			H:       rank.Evaluate(hRank[i], hTruth),
		})
	}
	return out, nil
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
