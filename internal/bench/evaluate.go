package bench

import (
	"time"

	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/rank"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/workload"
)

// Evaluation is one pass over a labelled corpus: the Top-SQL baselines and
// every PinSQL variant run on each case. It keeps only what Table I, Fig. 6,
// the parameter sweep and the per-scenario table read of a case, never the
// case or its frame, so the corpus streams through as cases.Stream intends.
// Each table is a reduction of it.
type Evaluation struct {
	variants []AblationVariant
	cases    []caseEval
	elapsed  time.Duration // the whole pass, generation included
}

// caseEval is what the tables read of one labelled case.
type caseEval struct {
	kind           workload.AnomalyKind
	detected       bool // the detector found the phenomenon unaided
	templates      int
	rTruth, hTruth map[sqltemplate.ID]bool

	top  []baseline   // one per rank.Methods(), in that order
	runs []variantRun // one per variant, in Evaluation.variants order
}

// baseline is one Top-SQL method's ranking of a case; it serves as both the
// R-SQL and the H-SQL answer.
type baseline struct {
	ids []sqltemplate.ID
	dur time.Duration
}

// variantRun is one PinSQL variant's diagnosis of a case.
type variantRun struct {
	rsqls, hsqls []sqltemplate.ID
	timing       core.Timing
}

// Evaluate streams the corpus once and runs the baselines and each variant
// on every case. Table I and the scenario table read the first variant as
// PinSQL: pass Fig6Variants(), or Fig6Variants()[:1] for those two alone.
func Evaluate(opt cases.Options, variants []AblationVariant) (*Evaluation, error) {
	start := time.Now()
	ev := &Evaluation{variants: variants}
	err := cases.Stream(opt, func(lab *cases.Labeled) error {
		fr, as, ae := lab.Case.Frame, lab.Case.AS, lab.Case.AE
		c := caseEval{
			kind: lab.Kind, detected: lab.Detected, templates: len(fr.Templates),
			rTruth: lab.RSQLs, hTruth: lab.HSQLs,
		}
		for _, m := range rank.Methods() {
			t0 := time.Now()
			ids := rank.TopSQL(fr, as, ae, m)
			c.top = append(c.top, baseline{ids: ids, dur: time.Since(t0)})
		}
		for _, v := range variants {
			d := core.DiagnoseFrame(lab.Case, fr, v.Cfg)
			c.runs = append(c.runs, variantRun{rsqls: d.RSQLIDs(), hsqls: d.HSQLIDs(), timing: d.Time})
		}
		ev.cases = append(ev.cases, c)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ev.elapsed = time.Since(start)
	return ev, nil
}

// truths returns the R-SQL and H-SQL truth sets in case order.
func truths(cs []caseEval) (r, h []map[sqltemplate.ID]bool) {
	for _, c := range cs {
		r = append(r, c.rTruth)
		h = append(h, c.hTruth)
	}
	return r, h
}

// variantEval scores variant v's R-SQL and H-SQL rankings over the cases.
func variantEval(cs []caseEval, v int) (r, h rank.Eval) {
	var rRank, hRank [][]sqltemplate.ID
	for _, c := range cs {
		rRank = append(rRank, c.runs[v].rsqls)
		hRank = append(hRank, c.runs[v].hsqls)
	}
	rTruth, hTruth := truths(cs)
	return rank.Evaluate(rRank, rTruth), rank.Evaluate(hRank, hTruth)
}

// ms is a duration in milliseconds at microsecond resolution.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
