package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/rank"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/workload"
)

// ScenarioRow is one anomaly family's accuracy over a corpus. Precision and
// recall are micro-averaged over the family's cases: the ranked lists are
// treated as predicted sets against the labeled truth sets, complementing
// the rank-position metrics (H@k/MRR) of the Table I harness.
type ScenarioRow struct {
	Kind  string `json:"kind"`
	Cases int    `json:"cases"`

	// Detected is the anomaly detector's hit rate on the family.
	Detected float64 `json:"detected"`

	// R-SQL set accuracy: the diagnosis' ranked R-SQL list vs the injected
	// ground truth.
	RPrecision float64 `json:"r_precision"`
	RRecall    float64 `json:"r_recall"`

	// H-SQL set accuracy over the top-5 head (the list any DBA actually
	// reads) vs the session-lift ground truth.
	HPrecision float64 `json:"h_precision"`
	HRecall    float64 `json:"h_recall"`

	// Rank-position metrics on the R-SQL list, for cross-checking against
	// the Table I aggregate.
	H1  float64 `json:"h1"`
	H5  float64 `json:"h5"`
	MRR float64 `json:"mrr"`
}

// ScenarioAccuracy is the per-scenario accuracy table — the document
// behind the committed accuracy floor test.
type ScenarioAccuracy struct {
	Rows  []ScenarioRow `json:"rows"`
	Cases int           `json:"cases"`
	Sec   float64       `json:"sec"`
}

// Row returns the named family's row, or nil.
func (s *ScenarioAccuracy) Row(kind workload.AnomalyKind) *ScenarioRow {
	for i := range s.Rows {
		if s.Rows[i].Kind == kind.String() {
			return &s.Rows[i]
		}
	}
	return nil
}

// scenarioAgg accumulates one family's counts.
type scenarioAgg struct {
	cases    int
	detected int

	rTP, rPred, rTruth int
	hTP, hPred, hTruth int

	rankings [][]sqltemplate.ID
	truths   []map[sqltemplate.ID]bool
}

// setOverlap counts predictions, truth size, and their intersection.
func setOverlap(pred []sqltemplate.ID, truth map[sqltemplate.ID]bool) (tp, np, nt int) {
	for _, id := range pred {
		if truth[id] {
			tp++
		}
	}
	return tp, len(pred), len(truth)
}

// Scenario reduces the evaluation to set-based accuracy per anomaly
// family, read from PinSQL, the first variant.
func (e *Evaluation) Scenario() *ScenarioAccuracy {
	aggs := map[workload.AnomalyKind]*scenarioAgg{}
	for _, c := range e.cases {
		a := aggs[c.kind]
		if a == nil {
			a = &scenarioAgg{}
			aggs[c.kind] = a
		}
		run := c.runs[0]
		a.cases++
		if c.detected {
			a.detected++
		}
		rtp, rnp, rnt := setOverlap(run.rsqls, c.rTruth)
		a.rTP += rtp
		a.rPred += rnp
		a.rTruth += rnt

		h := run.hsqls
		if len(h) > 5 {
			h = h[:5]
		}
		htp, hnp, hnt := setOverlap(h, c.hTruth)
		a.hTP += htp
		a.hPred += hnp
		a.hTruth += hnt

		a.rankings = append(a.rankings, run.rsqls)
		a.truths = append(a.truths, c.rTruth)
	}

	res := &ScenarioAccuracy{Sec: e.elapsed.Seconds()}
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	for _, kind := range []workload.AnomalyKind{
		workload.KindBusinessSpike, workload.KindPoorSQL,
		workload.KindLockStorm, workload.KindMDL,
	} {
		a := aggs[kind]
		if a == nil {
			continue
		}
		ev := rank.Evaluate(a.rankings, a.truths)
		res.Rows = append(res.Rows, ScenarioRow{
			Kind:       kind.String(),
			Cases:      a.cases,
			Detected:   ratio(a.detected, a.cases),
			RPrecision: ratio(a.rTP, a.rPred),
			RRecall:    ratio(a.rTP, a.rTruth),
			HPrecision: ratio(a.hTP, a.hPred),
			HRecall:    ratio(a.hTP, a.hTruth),
			H1:         ev.H1,
			H5:         ev.H5,
			MRR:        ev.MRR,
		})
		res.Cases += a.cases
	}
	return res
}

// Format renders the table.
func (s *ScenarioAccuracy) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-scenario accuracy (%d cases, %.1fs)\n", s.Cases, s.Sec)
	fmt.Fprintf(&b, "%-16s %5s %8s | %7s %7s | %7s %7s | %5s %5s %5s\n",
		"kind", "cases", "detect", "R-prec", "R-rec", "H-prec", "H-rec", "H@1", "H@5", "MRR")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-16s %5d %7.0f%% | %7.3f %7.3f | %7.3f %7.3f | %5.2f %5.2f %5.2f\n",
			r.Kind, r.Cases, 100*r.Detected,
			r.RPrecision, r.RRecall, r.HPrecision, r.HRecall,
			r.H1, r.H5, r.MRR)
	}
	return b.String()
}
