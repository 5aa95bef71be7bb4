// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§VIII) on the simulated substrate. Each
// experiment produces a structured result plus a Format method that prints
// rows shaped like the paper's, so `pinsql-bench` and the testing.B
// benchmarks share one implementation. Table I, Fig. 6, the parameter sweep
// and the per-scenario table are reductions of one Evaluate pass; the other
// experiments each have a RunXxx function.
package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/rank"
	"pinsql/internal/sqltemplate"
)

// TableIRow is one method's results in Table I.
type TableIRow struct {
	Method string
	R      rank.Eval // identifying R-SQLs
	H      rank.Eval // identifying H-SQLs
	TimeMs float64   // mean diagnosis time per case, milliseconds
}

// TableI holds the full Table I reproduction.
type TableI struct {
	Rows      []TableIRow
	Cases     int
	Templates float64 // mean templates per case
	Detected  int     // cases whose phenomenon the detector found unaided

	// Mean per-stage diagnosis time (§VIII-B's breakdown: estimating
	// individual active sessions, ranking H-SQLs, clustering+filtering,
	// history trend verification), milliseconds.
	StageMs struct {
		Estimate, RankH, Cluster, Verify float64
	}
}

// TableI reduces the evaluation to Table I: the Top-SQL baselines, the
// best of them (Top-All) and PinSQL, the first variant.
func (e *Evaluation) TableI() *TableI {
	n := len(e.cases)
	out := &TableI{Cases: n}
	rTruth, hTruth := truths(e.cases)
	var templates, stEst, stRank, stCluster, stVerify, pinMs float64
	for _, c := range e.cases {
		templates += float64(c.templates)
		if c.detected {
			out.Detected++
		}
		t := c.runs[0].timing
		pinMs += ms(t.Total())
		stEst += ms(t.EstimateSession)
		stRank += ms(t.RankHSQL)
		stCluster += ms(t.ClusterFilter)
		stVerify += ms(t.VerifyRank)
	}
	if n > 0 {
		out.Templates = templates / float64(n)
		out.StageMs.Estimate = stEst / float64(n)
		out.StageMs.RankH = stRank / float64(n)
		out.StageMs.Cluster = stCluster / float64(n)
		out.StageMs.Verify = stVerify / float64(n)
	}
	perCase := float64(max(n, 1))

	var individual, individualH []rank.Eval
	for i, m := range rank.Methods() {
		var ranked [][]sqltemplate.ID
		var timeMs float64
		for _, c := range e.cases {
			ranked = append(ranked, c.top[i].ids)
			timeMs += ms(c.top[i].dur)
		}
		row := TableIRow{
			Method: string(m),
			R:      rank.Evaluate(ranked, rTruth),
			H:      rank.Evaluate(ranked, hTruth),
			TimeMs: timeMs / perCase,
		}
		individual = append(individual, row.R)
		individualH = append(individualH, row.H)
		out.Rows = append(out.Rows, row)
	}
	pin := TableIRow{Method: "PinSQL", TimeMs: pinMs / perCase}
	pin.R, pin.H = variantEval(e.cases, 0)
	out.Rows = append(out.Rows, TableIRow{
		Method: "Top-All",
		R:      rank.BestOf(individual...),
		H:      rank.BestOf(individualH...),
	}, pin)
	return out
}

// Format renders the table in the paper's layout.
func (t *TableI) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: identifying R-SQLs and H-SQLs (%d cases, %.0f templates/case avg)\n", t.Cases, t.Templates)
	fmt.Fprintf(&b, "%-8s | %6s %6s %6s %10s | %6s %6s %6s\n",
		"Method", "R-H@1", "R-H@5", "R-MRR", "Time", "H-H@1", "H-H@5", "H-MRR")
	for _, r := range t.Rows {
		timeStr := "-"
		if r.TimeMs > 0 {
			timeStr = fmt.Sprintf("%.2fms", r.TimeMs)
		}
		fmt.Fprintf(&b, "%-8s | %6.1f %6.1f %6.2f %10s | %6.1f %6.1f %6.2f\n",
			r.Method, 100*r.R.H1, 100*r.R.H5, r.R.MRR, timeStr, 100*r.H.H1, 100*r.H.H5, r.H.MRR)
	}
	fmt.Fprintf(&b, "detector found %d/%d phenomena unaided; PinSQL stage means: estimate %.1fms, rank %.1fms, cluster %.1fms, verify %.1fms\n",
		t.Detected, t.Cases, t.StageMs.Estimate, t.StageMs.RankH, t.StageMs.Cluster, t.StageMs.Verify)
	return b.String()
}
