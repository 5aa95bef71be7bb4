// Command pinsql-diagnose runs the PinSQL pipeline on a serialized anomaly
// case and prints the ranked High-impact and Root Cause SQLs.
//
// The input is the caseio JSON document (produce one with pinsql-gen, or
// see -print-sample for a minimal hand-written example). -demo generates,
// diagnoses and prints a synthetic case end-to-end without any input file.
//
// Usage:
//
//	pinsql-diagnose case.json
//	pinsql-diagnose -demo lock_storm
//	pinsql-diagnose -print-sample > case.json
package main

import (
	"flag"
	"fmt"
	"os"

	"pinsql/internal/anomaly"
	"pinsql/internal/caseio"
	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/workload"
)

func main() {
	var (
		demo        = flag.String("demo", "", "generate and diagnose a synthetic case: business_spike|poor_sql|lock_storm|mdl_lock")
		printSample = flag.Bool("print-sample", false, "emit a small sample case JSON and exit")
		topK        = flag.Int("top", 5, "how many ranked templates to print")
	)
	flag.Parse()

	switch {
	case *printSample:
		if err := emitSample(); err != nil {
			fail(err)
		}
	case *demo != "":
		if err := runDemo(*demo, *topK); err != nil {
			fail(err)
		}
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pinsql-diagnose [-top K] case.json | -demo <family> | -print-sample")
			os.Exit(2)
		}
		if err := runFile(flag.Arg(0), *topK); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pinsql-diagnose:", err)
	os.Exit(1)
}

func runFile(path string, topK int) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	doc, err := caseio.Read(fh)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	c, fr, err := doc.ToFrame()
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	if fr.NumObs() == 0 {
		// No raw query log in the file: fall back to the response-time
		// proxy for individual sessions.
		cfg.NoEstimateSession = true
	}
	d := core.DiagnoseFrame(c, fr, cfg)
	printDiagnosis(d, c, topK)
	if doc.Truth != nil && len(doc.Truth.RSQLs) > 0 && len(d.RSQLs) > 0 {
		hit := false
		for _, id := range doc.Truth.RSQLs {
			if sqltemplate.ID(id) == d.RSQLs[0].ID {
				hit = true
			}
		}
		fmt.Printf("\nground truth R-SQLs: %v — top-1 %s\n", doc.Truth.RSQLs, verdict(hit))
	}
	return nil
}

func verdict(hit bool) string {
	if hit {
		return "HIT"
	}
	return "MISS"
}

func runDemo(family string, topK int) error {
	kinds := map[string]workload.AnomalyKind{
		"business_spike": workload.KindBusinessSpike,
		"poor_sql":       workload.KindPoorSQL,
		"lock_storm":     workload.KindLockStorm,
		"mdl_lock":       workload.KindMDL,
	}
	kind, ok := kinds[family]
	if !ok {
		return fmt.Errorf("unknown demo family %q", family)
	}
	opt := cases.DefaultOptions()
	opt.FillerServices = 2
	opt.FillerSpecs = 5
	lab, err := cases.GenerateOne(opt, 1, kind)
	if err != nil {
		return err
	}
	fmt.Printf("generated %s (anomaly window [%d, %d) s, %d templates)\n",
		lab.Name, lab.Case.AS, lab.Case.AE, len(lab.Case.Frame.Templates))
	rsqls, _ := lab.TruthIDs()
	fmt.Printf("ground truth R-SQLs: %v\n\n", rsqls)
	d := core.DiagnoseFrame(lab.Case, lab.Case.Frame, core.DefaultConfig())
	printDiagnosis(d, lab.Case, topK)
	return nil
}

func printDiagnosis(d *core.Diagnosis, c *anomaly.Case, topK int) {
	fmt.Printf("diagnosis completed in %s (estimate %s, H-rank %s, cluster %s over %d pairs in %d multiply-adds, verify %s)\n",
		d.Time.Total().Round(100_000), d.Time.EstimateSession.Round(100_000),
		d.Time.RankHSQL.Round(100_000), d.Time.ClusterFilter.Round(100_000),
		d.Root.PairsScanned, d.Root.MulAdds, d.Time.VerifyRank.Round(100_000))
	fmt.Printf("anomaly window: [%d, %d) of %d seconds\n\n", c.AS, c.AE, c.Frame.Seconds)

	fmt.Println("High-impact SQLs (H-SQLs):")
	for i, s := range d.HSQLs {
		if i >= topK {
			break
		}
		fmt.Printf("  %d. %-10s impact=%+.3f (trend %+0.2f, scale %+0.2f, scale-trend %+0.2f)  %s\n",
			i+1, s.ID, s.Impact, s.Trend, s.Scale, s.ScaleTrend, templateText(c, s.ID))
	}
	fmt.Println("\nRoot Cause SQLs (R-SQLs):")
	if len(d.RSQLs) == 0 {
		fmt.Println("  (none pinpointed)")
		return
	}
	for i, r := range d.RSQLs {
		if i >= topK {
			break
		}
		verified := ""
		if r.Verified {
			verified = " [history-verified]"
		}
		fmt.Printf("  %d. %-10s score=%+.3f cluster=%d%s  %s\n",
			i+1, r.ID, r.Score, r.Cluster, verified, templateText(c, r.ID))
	}
}

func templateText(c *anomaly.Case, id sqltemplate.ID) string {
	if ts := c.Frame.Template(id); ts != nil && ts.Meta.Text != "" {
		text := ts.Meta.Text
		if len(text) > 70 {
			text = text[:67] + "..."
		}
		return text
	}
	return ""
}

// emitSample writes a minimal hand-constructable case: a stable SELECT
// victim and an UPDATE culprit that appears only during the anomaly.
func emitSample() error {
	n := 120
	doc := &caseio.File{
		Version: caseio.CurrentVersion,
		Name:    "sample-lock-case",
		Seconds: n,
		Anomaly: caseio.Window{Start: 60, End: 100},
	}
	sess := make([]float64, n)
	countA := make([]float64, n)
	rtA := make([]float64, n)
	countB := make([]float64, n)
	rtB := make([]float64, n)
	for i := 0; i < n; i++ {
		sess[i] = 2
		countA[i] = 50
		rtA[i] = 250
		if i >= 60 && i < 100 {
			sess[i] = 30
			countB[i] = 40
			rtB[i] = 20000
			rtA[i] = 2500
		}
	}
	doc.ActiveSession = sess
	doc.Templates = []caseio.Template{
		{ID: "VICTIM01", SQL: "SELECT * FROM orders WHERE uid = ?", Table: "orders", Count: countA, SumRT: rtA},
		{ID: "CULPRIT7", SQL: "UPDATE orders SET state = ? WHERE id = ?", Table: "orders", Count: countB, SumRT: rtB},
	}
	doc.History = []caseio.History{{DaysAgo: 1, Counts: map[string][]float64{"VICTIM01": countA}}}
	doc.Truth = &caseio.Truth{RSQLs: []string{"CULPRIT7"}}
	return doc.Write(os.Stdout)
}
