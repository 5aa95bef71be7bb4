package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/cases"
	"pinsql/internal/session"
	"pinsql/internal/workload"
)

// TableIIIRow is one estimator's quality.
type TableIIIRow struct {
	Method string
	Corr   float64
	MSE    float64
}

// TableIII is the individual-active-session case study (§VIII-F): the sum
// of per-template estimates compared against the instance's SHOW STATUS
// active session, for the three estimators.
type TableIII struct {
	Rows    []TableIIIRow
	Buckets int
}

// RunTableIII simulates one busy instance and scores EstimateByRT,
// EstimateNoBuckets and EstimateBuckets against the observed active
// session. The trace uses a lock-storm case: blocked statements span many
// seconds, which is precisely the regime where charging a query's whole
// response time to its arrival second (Estimate By RT) falls apart — the
// paper's production traces have the same property.
func RunTableIII(seed int64, buckets int) (*TableIII, error) {
	if buckets <= 0 {
		buckets = session.DefaultBuckets
	}
	opt := cases.DefaultOptions()
	opt.Seed = seed
	opt.TraceSec = 1500
	opt.AnomalyStartSec = 800
	opt.AnomalyMinDurSec = 300
	opt.AnomalyMaxDurSec = 300
	opt.FillerServices = 2
	opt.FillerSpecs = 5
	opt.HistoryDays = []int{1}
	lab, err := cases.GenerateOne(opt, 0, workload.KindLockStorm)
	if err != nil {
		return nil, err
	}
	fr := lab.Case.Frame
	observed := fr.ActiveSession

	out := &TableIII{Buckets: buckets}
	byRT := session.EstimateFrameByRT(fr)
	c, m := byRT.Quality(observed)
	out.Rows = append(out.Rows, TableIIIRow{Method: "Estimate By RT", Corr: c, MSE: m})

	noBkt := session.EstimateFrameNoBuckets(fr)
	c, m = noBkt.Quality(observed)
	out.Rows = append(out.Rows, TableIIIRow{Method: "Estimate w/o buckets", Corr: c, MSE: m})

	bkt := session.EstimateFrameBuckets(fr, observed, buckets, 0)
	c, m = bkt.Quality(observed)
	out.Rows = append(out.Rows, TableIIIRow{Method: fmt.Sprintf("Estimate (K=%d)", buckets), Corr: c, MSE: m})
	return out, nil
}

// Format renders the table.
func (t *TableIII) Format() string {
	var b strings.Builder
	b.WriteString("Table III: estimated active session vs SHOW STATUS ground truth\n")
	fmt.Fprintf(&b, "%-22s | %18s | %12s\n", "Method", "Pearson Correlation", "MSE")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s | %18.2f | %12.2f\n", r.Method, r.Corr, r.MSE)
	}
	return b.String()
}
