// Package rank provides the evaluation metrics of §VIII-A (Hits@k, MRR)
// and the four Top-SQL competitors (Top-EN, Top-RT, Top-ER, Top-All) that
// PinSQL is compared against in Table I. Each competitor ranks the SQL
// templates of an anomaly case by one aggregated metric over the anomaly
// window, which is exactly what the Performance-Insights-style products of
// cloud vendors expose.
package rank

import (
	"sort"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/window"
)

// Hit reports whether any of the first k entries of ranked appears in the
// annotated truth set (H@k counts the first correctly found template,
// §VIII-A).
func Hit(ranked []sqltemplate.ID, truth map[sqltemplate.ID]bool, k int) bool {
	if k > len(ranked) {
		k = len(ranked)
	}
	for _, id := range ranked[:k] {
		if truth[id] {
			return true
		}
	}
	return false
}

// ReciprocalRank returns 1/rank of the first ranked template that appears
// in the truth set, or 0 when none does.
func ReciprocalRank(ranked []sqltemplate.ID, truth map[sqltemplate.ID]bool) float64 {
	for i, id := range ranked {
		if truth[id] {
			return 1 / float64(i+1)
		}
	}
	return 0
}

// Eval aggregates per-case results into the Table I row format.
type Eval struct {
	H1    float64 // Hits@1, as a fraction in [0,1]
	H5    float64 // Hits@5
	MRR   float64
	Cases int
}

// Evaluate scores a ranking method over a set of cases; rankings[i] is the
// method's output for case i and truths[i] the annotated set.
func Evaluate(rankings [][]sqltemplate.ID, truths []map[sqltemplate.ID]bool) Eval {
	var ev Eval
	if len(rankings) != len(truths) || len(rankings) == 0 {
		return ev
	}
	for i, ranked := range rankings {
		truth := truths[i]
		if Hit(ranked, truth, 1) {
			ev.H1++
		}
		if Hit(ranked, truth, 5) {
			ev.H5++
		}
		ev.MRR += ReciprocalRank(ranked, truth)
	}
	n := float64(len(rankings))
	ev.H1 /= n
	ev.H5 /= n
	ev.MRR /= n
	ev.Cases = len(rankings)
	return ev
}

// Method identifies a Top-SQL baseline.
type Method string

// The §VIII-A competitors.
const (
	MethodTopEN Method = "Top-EN" // by #execution
	MethodTopRT Method = "Top-RT" // by total response time (≈ avg active session)
	MethodTopER Method = "Top-ER" // by #examined_rows
)

// Methods lists the individual baselines in presentation order.
func Methods() []Method { return []Method{MethodTopRT, MethodTopER, MethodTopEN} }

// TopSQL ranks the frame's templates by the method's metric summed over
// the anomaly window [as, ae), descending. Ties break by template ID for
// determinism.
func TopSQL(f *window.Frame, as, ae int, m Method) []sqltemplate.ID {
	type scored struct {
		id    sqltemplate.ID
		value float64
	}
	rows := make([]scored, 0, len(f.Templates))
	for i := range f.Templates {
		ts := &f.Templates[i]
		var v float64
		switch m {
		case MethodTopEN:
			v = ts.Count.Slice(as, ae).Sum()
		case MethodTopRT:
			v = ts.SumRT.Slice(as, ae).Sum()
		case MethodTopER:
			v = ts.SumRows.Slice(as, ae).Sum()
		}
		rows = append(rows, scored{ts.Meta.ID, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].value != rows[j].value {
			return rows[i].value > rows[j].value
		}
		return rows[i].id < rows[j].id
	})
	out := make([]sqltemplate.ID, len(rows))
	for i, r := range rows {
		out[i] = r.id
	}
	return out
}

// BestOf returns, per evaluation metric, the best result across the given
// evals — the paper's Top-All row ("the best results of the variants of
// Top SQLs").
func BestOf(evals ...Eval) Eval {
	var best Eval
	for _, e := range evals {
		if e.H1 > best.H1 {
			best.H1 = e.H1
		}
		if e.H5 > best.H5 {
			best.H5 = e.H5
		}
		if e.MRR > best.MRR {
			best.MRR = e.MRR
		}
		if e.Cases > best.Cases {
			best.Cases = e.Cases
		}
	}
	return best
}
