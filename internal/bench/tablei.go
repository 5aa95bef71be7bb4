// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§VIII) on the simulated substrate. Each
// RunXxx function produces a structured result plus a Format method that
// prints rows shaped like the paper's, so `pinsql-bench` and the testing.B
// benchmarks share one implementation.
package bench

import (
	"fmt"
	"strings"
	"time"

	"pinsql/internal/cases"
	"pinsql/internal/core"
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

// RunTableI evaluates PinSQL and the Top-SQL baselines over a generated
// corpus (the ADAC substitute).
func RunTableI(opt cases.Options) (*TableI, error) {
	type acc struct {
		r, h   [][]sqltemplate.ID
		timeMs float64
	}
	methods := []string{"Top-RT", "Top-ER", "Top-EN", "PinSQL"}
	byMethod := make(map[string]*acc, len(methods))
	for _, m := range methods {
		byMethod[m] = &acc{}
	}
	var rTruth, hTruth []map[sqltemplate.ID]bool
	var templates float64
	detected := 0
	var stEst, stRank, stCluster, stVerify float64

	err := cases.Stream(opt, func(lab *cases.Labeled) error {
		rTruth = append(rTruth, lab.RSQLs)
		hTruth = append(hTruth, lab.HSQLs)
		fr, as, ae := lab.Case.Frame, lab.Case.AS, lab.Case.AE
		templates += float64(len(fr.Templates))
		if lab.Detected {
			detected++
		}

		for _, m := range rank.Methods() {
			start := time.Now()
			ranked := rank.TopSQL(fr, as, ae, m)
			a := byMethod[string(m)]
			a.timeMs += float64(time.Since(start).Microseconds()) / 1000
			a.r = append(a.r, ranked)
			a.h = append(a.h, ranked)
		}

		d := core.DiagnoseFrame(lab.Case, fr, core.DefaultConfig())
		a := byMethod["PinSQL"]
		a.timeMs += float64(d.Time.Total().Microseconds()) / 1000
		stEst += float64(d.Time.EstimateSession.Microseconds()) / 1000
		stRank += float64(d.Time.RankHSQL.Microseconds()) / 1000
		stCluster += float64(d.Time.ClusterFilter.Microseconds()) / 1000
		stVerify += float64(d.Time.VerifyRank.Microseconds()) / 1000
		a.r = append(a.r, d.RSQLIDs())
		a.h = append(a.h, d.HSQLIDs())
		return nil
	})
	if err != nil {
		return nil, err
	}

	n := len(rTruth)
	out := &TableI{Cases: n, Detected: detected}
	if n > 0 {
		out.Templates = templates / float64(n)
		out.StageMs.Estimate = stEst / float64(n)
		out.StageMs.RankH = stRank / float64(n)
		out.StageMs.Cluster = stCluster / float64(n)
		out.StageMs.Verify = stVerify / float64(n)
	}
	var individual []rank.Eval
	var individualH []rank.Eval
	for _, m := range methods {
		a := byMethod[m]
		row := TableIRow{
			Method: m,
			R:      rank.Evaluate(a.r, rTruth),
			H:      rank.Evaluate(a.h, hTruth),
			TimeMs: a.timeMs / float64(max(n, 1)),
		}
		if m != "PinSQL" {
			individual = append(individual, row.R)
			individualH = append(individualH, row.H)
		}
		out.Rows = append(out.Rows, row)
	}
	// Insert Top-All (the best of the individual baselines) before PinSQL.
	topAll := TableIRow{
		Method: "Top-All",
		R:      rank.BestOf(individual...),
		H:      rank.BestOf(individualH...),
	}
	last := out.Rows[len(out.Rows)-1]
	out.Rows = append(out.Rows[:len(out.Rows)-1], topAll, last)
	return out, nil
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
