package bench

import (
	"fmt"
	"strings"

	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/rank"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/workload"
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
// parameter swept. Supported names: "ks", "tau", "buckets".
func RunParamSweep(opt cases.Options, name string, values []float64) (*ParamSweep, error) {
	cfgs := make([]core.Config, len(values))
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
		cfgs[i] = cfg
	}

	rRank := make([][][]sqltemplate.ID, len(values))
	hRank := make([][][]sqltemplate.ID, len(values))
	var rTruth, hTruth []map[sqltemplate.ID]bool
	err := cases.Stream(opt, func(lab *cases.Labeled) error {
		rTruth = append(rTruth, lab.RSQLs)
		hTruth = append(hTruth, lab.HSQLs)
		fr := lab.Case.Frame
		for i, cfg := range cfgs {
			d := core.DiagnoseFrame(lab.Case, fr, cfg)
			rRank[i] = append(rRank[i], d.RSQLIDs())
			hRank[i] = append(hRank[i], d.HSQLIDs())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &ParamSweep{Name: name, Cases: len(rTruth)}
	for i, v := range values {
		out.Rows = append(out.Rows, ParamSweepRow{
			Param: v,
			R:     rank.Evaluate(rRank[i], rTruth),
			H:     rank.Evaluate(hRank[i], hTruth),
		})
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

// FamilyBreakdown evaluates PinSQL per anomaly family, exposing where the
// residual errors live (the paper reports only the aggregate).
type FamilyBreakdown struct {
	Rows  map[workload.AnomalyKind]rank.Eval
	Cases int
}

// RunFamilyBreakdown runs PinSQL over a corpus and groups R-SQL accuracy by
// injected family.
func RunFamilyBreakdown(opt cases.Options) (*FamilyBreakdown, error) {
	rank4 := make(map[workload.AnomalyKind][][]sqltemplate.ID)
	truth4 := make(map[workload.AnomalyKind][]map[sqltemplate.ID]bool)
	n := 0
	err := cases.Stream(opt, func(lab *cases.Labeled) error {
		n++
		fr := lab.Case.Frame
		d := core.DiagnoseFrame(lab.Case, fr, core.DefaultConfig())
		rank4[lab.Kind] = append(rank4[lab.Kind], d.RSQLIDs())
		truth4[lab.Kind] = append(truth4[lab.Kind], lab.RSQLs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &FamilyBreakdown{Rows: make(map[workload.AnomalyKind]rank.Eval), Cases: n}
	for kind, ranks := range rank4 {
		out.Rows[kind] = rank.Evaluate(ranks, truth4[kind])
	}
	return out, nil
}

// Format renders the per-family accuracy.
func (f *FamilyBreakdown) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-family R-SQL accuracy (%d cases)\n", f.Cases)
	for _, kind := range []workload.AnomalyKind{
		workload.KindBusinessSpike, workload.KindPoorSQL,
		workload.KindLockStorm, workload.KindMDL,
	} {
		ev, ok := f.Rows[kind]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-15s H@1 %5.1f  H@5 %5.1f  MRR %.2f  (%d cases)\n",
			kind, 100*ev.H1, 100*ev.H5, ev.MRR, ev.Cases)
	}
	return b.String()
}
