package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/rank"
)

// ParamSweepRow is one parameter setting's evaluation.
type ParamSweepRow struct {
	Param float64
	R     rank.Eval
	H     rank.Eval
}

// ParamSweep is a sensitivity study over one pipeline hyperparameter —
// the DESIGN.md ablations beyond the paper's Fig. 6 (smooth factor ks,
// clustering threshold τ, bucket count K).
type ParamSweep struct {
	Name  string
	Rows  []ParamSweepRow
	Cases int
}

// RunParamSweep evaluates the pipeline over a shared corpus with the named
// parameter swept, one variant per value. Supported names: "ks", "tau",
// "buckets".
func RunParamSweep(opt cases.Options, name string, values []float64) (*ParamSweep, error) {
	variants := make([]AblationVariant, len(values))
	for i, v := range values {
		cfg := core.DefaultConfig()
		switch name {
		case "ks":
			cfg.SmoothKs = v
		case "tau":
			cfg.Tau = v
		case "buckets":
			cfg.Buckets = int(v)
		default:
			return nil, fmt.Errorf("bench: unknown sweep parameter %q", name)
		}
		variants[i] = AblationVariant{Cfg: cfg}
	}
	ev, err := Evaluate(opt, variants)
	if err != nil {
		return nil, err
	}
	out := &ParamSweep{Name: name, Cases: len(ev.cases)}
	for i, v := range values {
		row := ParamSweepRow{Param: v}
		row.R, row.H = variantEval(ev.cases, i)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the sweep.
func (p *ParamSweep) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Parameter sweep: %s (%d cases)\n", p.Name, p.Cases)
	fmt.Fprintf(&b, "%10s | %6s %6s %6s | %6s %6s %6s\n", p.Name, "R-H@1", "R-H@5", "R-MRR", "H-H@1", "H-H@5", "H-MRR")
	for _, r := range p.Rows {
		fmt.Fprintf(&b, "%10.2f | %6.1f %6.1f %6.2f | %6.1f %6.1f %6.2f\n",
			r.Param, 100*r.R.H1, 100*r.R.H5, r.R.MRR, 100*r.H.H1, 100*r.H.H5, r.H.MRR)
	}
	return b.String()
}

// SmallCorpus returns a reduced corpus configuration for fast harness runs
// (tests and -short benchmarks).
func SmallCorpus(seed int64, count int) cases.Options {
	opt := cases.DefaultOptions()
	opt.Seed = seed
	opt.Count = count
	opt.TraceSec = 1500
	opt.AnomalyStartSec = 800
	opt.AnomalyMinDurSec = 240
	opt.AnomalyMaxDurSec = 360
	opt.FillerServices = 2
	opt.FillerSpecs = 5
	opt.HistoryDays = []int{1, 3}
	return opt
}
