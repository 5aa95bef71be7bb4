// Command pinsql-gen generates labeled anomaly cases from the synthetic
// corpus (the ADAC substitute) and writes them as caseio JSON documents,
// ready for offline diagnosis with pinsql-diagnose or for sharing as a
// benchmark dataset.
//
// Usage:
//
//	pinsql-gen -count 8 -out ./corpus          # corpus/case-000-*.json ...
//	pinsql-gen -family lock_storm -out ./c     # only one anomaly family
//	pinsql-gen -count 1 -queries=false -out -  # metrics-only, to stdout
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pinsql/internal/caseio"
	"pinsql/internal/cases"
	"pinsql/internal/workload"
)

func main() {
	var (
		count   = flag.Int("count", 4, "number of cases to generate")
		seed    = flag.Int64("seed", 1, "corpus seed")
		family  = flag.String("family", "", "restrict to one family: business_spike|poor_sql|lock_storm|mdl_lock")
		out     = flag.String("out", ".", "output directory, or '-' for stdout")
		queries = flag.Bool("queries", true, "include raw query observations (larger files, better diagnosis)")
		small   = flag.Bool("small", false, "reduced trace length (faster, smaller)")
	)
	flag.Parse()

	if err := run(*count, *seed, *family, *out, *queries, *small); err != nil {
		fmt.Fprintln(os.Stderr, "pinsql-gen:", err)
		os.Exit(1)
	}
}

func run(count int, seed int64, family, out string, withQueries, small bool) error {
	kinds := []workload.AnomalyKind{
		workload.KindBusinessSpike,
		workload.KindPoorSQL,
		workload.KindLockStorm,
		workload.KindMDL,
	}
	if family != "" {
		named := map[string]workload.AnomalyKind{
			"business_spike": workload.KindBusinessSpike,
			"poor_sql":       workload.KindPoorSQL,
			"lock_storm":     workload.KindLockStorm,
			"mdl_lock":       workload.KindMDL,
		}
		kind, ok := named[family]
		if !ok {
			return fmt.Errorf("unknown family %q", family)
		}
		kinds = []workload.AnomalyKind{kind}
	}

	opt := cases.DefaultOptions()
	opt.Seed = seed
	if small {
		opt.TraceSec = 1200
		opt.AnomalyStartSec = 700
		opt.AnomalyMinDurSec = 180
		opt.AnomalyMaxDurSec = 300
		opt.FillerServices = 1
		opt.FillerSpecs = 3
		opt.HistoryDays = []int{1}
	}

	if out != "-" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	for i := 0; i < count; i++ {
		kind := kinds[i%len(kinds)]
		lab, err := cases.GenerateOne(opt, int64(i), kind)
		if err != nil {
			return err
		}
		doc := render(lab, withQueries)

		if out == "-" {
			if err := doc.Write(os.Stdout); err != nil {
				return err
			}
			continue
		}
		path := filepath.Join(out, lab.Name+".json")
		fh, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := doc.Write(fh); err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		info, _ := os.Stat(path)
		fmt.Printf("wrote %s (%d templates, %d KiB)\n", path, len(doc.Templates), info.Size()/1024)
	}
	return nil
}

// render is the document pinsql-gen writes for one labeled case. The same
// case renders to the same bytes every time: the truth lists are sorted, and
// FromFrame fixes every other order.
func render(lab *cases.Labeled, withQueries bool) *caseio.File {
	doc := caseio.FromFrame(lab.Case, lab.Case.Frame)
	if !withQueries {
		doc.Queries = nil
	}
	doc.Name = lab.Name
	doc.Truth = &caseio.Truth{Kind: lab.Kind.String()}
	doc.Truth.RSQLs, doc.Truth.HSQLs = lab.TruthIDs()
	return doc
}
