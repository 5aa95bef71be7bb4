package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/parallel"
	"pinsql/internal/repair"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/workload"
)

// TableIIRow aggregates one optimization-selection strategy.
type TableIIRow struct {
	Strategy  string
	Optimized int
	TresGain  float64 // mean % drop of the statement's mean response time
	RowsGain  float64 // mean % drop of the statement's mean examined rows
}

// TableII is the long-term query-optimization impact study (§VIII-E): the
// average metric gains of optimizing PinSQL-pinpointed R-SQLs versus
// optimizing whatever a slow-SQL detector surfaces.
type TableII struct {
	Rows []TableIIRow
}

// RunTableII generates `count` anomaly cases (alternating poor-SQL and
// lock-storm families, the two where optimization applies), and for each
// measures the gain of optimizing (a) PinSQL's top R-SQL and (b) the
// slow-SQL detector's pick (the template with the highest mean response
// time). The gain is measured by replaying the same deterministic workload
// with the optimization applied and comparing the statement's own mean
// response time and examined rows over the anomaly window.
//
// Each case — its generation, diagnosis, and up-to-four replay
// simulations — is self-contained, so cases fan out over `workers`
// goroutines; gains are accumulated in case order on the calling
// goroutine, keeping the float sums (and thus the table) bit-identical
// for every worker count.
func RunTableII(seed int64, count, workers int) (*TableII, error) {
	if count <= 0 {
		count = 8
	}
	type acc struct {
		n          int
		tres, rows float64
	}
	var rsqlAcc, slowAcc acc

	kinds := []workload.AnomalyKind{workload.KindPoorSQL, workload.KindLockStorm}
	opt := cases.DefaultOptions()
	opt.Seed = seed
	opt.TraceSec = 1500
	opt.AnomalyStartSec = 800
	opt.AnomalyMinDurSec = 300
	opt.AnomalyMaxDurSec = 400
	opt.FillerServices = 1
	opt.FillerSpecs = 4
	opt.HistoryDays = []int{1}

	// caseGain is one case's contribution to the two strategy rows.
	type caseGain struct {
		rsql, slow         bool
		rsqlTres, rsqlRows float64
		slowTres, slowRows float64
	}

	err := parallel.OrderedStream(workers, count,
		func(i int) (caseGain, error) {
			var g caseGain
			kind := kinds[i%len(kinds)]
			lab, err := cases.GenerateOne(opt, int64(i), kind)
			if err != nil {
				return g, err
			}
			as, ae := lab.Case.AS, lab.Case.AE

			// Strategy (a): PinSQL's top R-SQL.
			d := core.DiagnoseFrame(lab.Case, lab.Case.Frame, core.DefaultConfig())
			if len(d.RSQLs) > 0 {
				tres, rows, err := optimizationGain(opt, int64(i), kind, d.RSQLs[0].ID, as, ae)
				if err != nil {
					return g, err
				}
				if tres != 0 || rows != 0 {
					g.rsql, g.rsqlTres, g.rsqlRows = true, tres, rows
				}
			}

			// Strategy (b): the slow-SQL detector — highest mean response
			// time among templates with meaningful traffic.
			slowID := slowestTemplate(lab, as, ae)
			if slowID != "" {
				tres, rows, err := optimizationGain(opt, int64(i), kind, slowID, as, ae)
				if err != nil {
					return g, err
				}
				if tres != 0 || rows != 0 {
					g.slow, g.slowTres, g.slowRows = true, tres, rows
				}
			}
			return g, nil
		},
		func(i int, g caseGain) error {
			if g.rsql {
				rsqlAcc.n++
				rsqlAcc.tres += g.rsqlTres
				rsqlAcc.rows += g.rsqlRows
			}
			if g.slow {
				slowAcc.n++
				slowAcc.tres += g.slowTres
				slowAcc.rows += g.slowRows
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	out := &TableII{}
	for _, row := range []struct {
		name string
		a    acc
	}{{"R-SQLs", rsqlAcc}, {"Slow SQLs", slowAcc}} {
		r := TableIIRow{Strategy: row.name, Optimized: row.a.n}
		if row.a.n > 0 {
			r.TresGain = row.a.tres / float64(row.a.n)
			r.RowsGain = row.a.rows / float64(row.a.n)
		}
		out.Rows = append(out.Rows, r)
	}
	return out, nil
}

// slowestTemplate models the slow-SQL detector stream of earlier studies:
// a slow log ranks statements by how many slow executions (RT above the
// long_query_time threshold, 1 s here) they produced in the window. Blocked
// victims, with their high traffic, dominate such logs even though their
// slowness is somebody else's lock.
func slowestTemplate(lab *cases.Labeled, as, ae int) sqltemplate.ID {
	fr := lab.Case.Frame
	fromMs := fr.StartMs + int64(as)*1000
	toMs := fr.StartMs + int64(ae)*1000
	slow := make(map[int32]int)
	for _, r := range lab.Collector.TakeArranged() {
		if r.ArrivalMs >= fromMs && r.ArrivalMs < toMs && r.ResponseMs > 1000 {
			slow[r.TemplateIdx]++
		}
	}
	var best sqltemplate.ID
	bestN := 0
	for idx, n := range slow {
		if n > bestN || (n == bestN && best != "" && lab.Collector.Registry().At(idx).ID < best) {
			bestN = n
			best = lab.Collector.Registry().At(idx).ID
		}
	}
	return best
}

// optimizationGain replays the case's deterministic workload twice — as-is
// and with the target statement optimized — and returns the percentage
// drops of its mean response time and mean examined rows over [as, ae).
func optimizationGain(opt cases.Options, idx int64, kind workload.AnomalyKind, target sqltemplate.ID, as, ae int) (tresGain, rowsGain float64, err error) {
	before, err := replayCase(opt, idx, kind, target, false)
	if err != nil {
		return 0, 0, err
	}
	after, err := replayCase(opt, idx, kind, target, true)
	if err != nil {
		return 0, 0, err
	}
	bRT, bRows := templateWindowMeans(before, target, as, ae)
	aRT, aRows := templateWindowMeans(after, target, as, ae)
	if bRT <= 0 || bRows <= 0 {
		return 0, 0, nil
	}
	return 100 * (bRT - aRT) / bRT, 100 * (bRows - aRows) / bRows, nil
}

// replayCase regenerates the identical case world and simulation, applying
// the optimizer to the target statement first when optimize is set.
func replayCase(opt cases.Options, idx int64, kind workload.AnomalyKind, target sqltemplate.ID, optimize bool) (*cases.Labeled, error) {
	if !optimize {
		return cases.GenerateOne(opt, idx, kind)
	}
	o := repair.DefaultOptimizer()
	return cases.GenerateOneWith(opt, idx, kind, func(w *workload.World) {
		if spec := w.SpecByID(target); spec != nil {
			spec.ApplyOptimization(o.RowsFactor, o.TimeFactor)
		}
	})
}

func templateWindowMeans(lab *cases.Labeled, id sqltemplate.ID, as, ae int) (meanRT, meanRows float64) {
	ts := lab.Case.Frame.Template(id)
	if ts == nil {
		return 0, 0
	}
	n := ts.Count.Slice(as, ae).Sum()
	if n == 0 {
		return 0, 0
	}
	return ts.SumRT.Slice(as, ae).Sum() / n, ts.SumRows.Slice(as, ae).Sum() / n
}

// Format renders the table.
func (t *TableII) Format() string {
	var b strings.Builder
	b.WriteString("Table II: averaged gains of approved query optimizations\n")
	fmt.Fprintf(&b, "%-10s | %10s | %10s | %16s\n", "Strategy", "#Optimized", "tres Gain", "#examined_rows Gain")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s | %10d | %9.2f%% | %15.2f%%\n", r.Strategy, r.Optimized, r.TresGain, r.RowsGain)
	}
	return b.String()
}
