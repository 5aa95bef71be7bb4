package cases

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pinsql/internal/workload"
)

func smallOptions() Options {
	opt := DefaultOptions()
	opt.TraceSec = 1200
	opt.AnomalyStartSec = 700
	opt.AnomalyMinDurSec = 180
	opt.AnomalyMaxDurSec = 300
	opt.FillerServices = 1
	opt.FillerSpecs = 3
	opt.HistoryDays = []int{1}
	return opt
}

func TestGenerateOneEachFamily(t *testing.T) {
	kinds := []workload.AnomalyKind{
		workload.KindBusinessSpike,
		workload.KindPoorSQL,
		workload.KindLockStorm,
		workload.KindMDL,
	}
	for _, kind := range kinds {
		t.Run(kind.String(), func(t *testing.T) {
			lab, err := GenerateOne(smallOptions(), 3, kind)
			if err != nil {
				t.Fatal(err)
			}
			if len(lab.RSQLs) == 0 {
				t.Error("no ground-truth R-SQLs")
			}
			if len(lab.HSQLs) == 0 {
				t.Error("no ground-truth H-SQLs")
			}
			if lab.Case.Frame == nil || lab.Case.Frame.Seconds != 1200 {
				t.Errorf("frame seconds = %d", lab.Case.Frame.Seconds)
			}
			if lab.Case.AE <= lab.Case.AS {
				t.Errorf("anomaly window [%d,%d) malformed", lab.Case.AS, lab.Case.AE)
			}
			if len(lab.Case.History) != 1 || lab.Case.History[0].DaysAgo != 1 {
				t.Errorf("history windows = %+v", lab.Case.History)
			}
			if !lab.Detected {
				t.Errorf("%s anomaly not detected by perception layers", kind)
			}
		})
	}
}

func TestGroundTruthRSQLIsNewInHistory(t *testing.T) {
	lab, err := GenerateOne(smallOptions(), 5, workload.KindPoorSQL)
	if err != nil {
		t.Fatal(err)
	}
	for id := range lab.RSQLs {
		if _, ok := lab.Case.History[0].Counts[id]; ok {
			t.Errorf("injected template %s exists in history (should be new)", id)
		}
	}
	// Base templates must exist in history.
	base := lab.World.Services[0].Specs[0].ID()
	if _, ok := lab.Case.History[0].Counts[base]; !ok {
		t.Error("base template missing from history window")
	}
}

func TestHSQLLabelsIncludeAffectedTemplates(t *testing.T) {
	lab, err := GenerateOne(smallOptions(), 7, workload.KindMDL)
	if err != nil {
		t.Fatal(err)
	}
	// An MDL freeze on "orders" must label at least one orders-touching
	// template (a frozen victim) as H-SQL.
	found := false
	for id := range lab.HSQLs {
		if ts := lab.Case.Frame.Template(id); ts != nil && ts.Meta.Table == "orders" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no orders-table victim among H-SQLs: %v", lab.HSQLs)
	}
}

func TestStreamRoundRobin(t *testing.T) {
	opt := smallOptions()
	opt.Count = 4
	var kinds []workload.AnomalyKind
	err := Stream(opt, func(c *Labeled) error {
		kinds = append(kinds, c.Kind)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []workload.AnomalyKind{
		workload.KindBusinessSpike,
		workload.KindPoorSQL,
		workload.KindLockStorm,
		workload.KindMDL,
	}
	if len(kinds) != 4 {
		t.Fatalf("cases = %d", len(kinds))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("case %d kind = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestStreamZeroCount(t *testing.T) {
	if err := Stream(Options{}, func(*Labeled) error { t.Fatal("must not call"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateOne(smallOptions(), 2, workload.KindLockStorm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateOne(smallOptions(), 2, workload.KindLockStorm)
	if err != nil {
		t.Fatal(err)
	}
	if a.Case.AS != b.Case.AS || a.Case.AE != b.Case.AE {
		t.Errorf("windows differ: [%d,%d) vs [%d,%d)", a.Case.AS, a.Case.AE, b.Case.AS, b.Case.AE)
	}
	for id := range a.RSQLs {
		if !b.RSQLs[id] {
			t.Errorf("R-SQL truth differs: %s", id)
		}
	}
	sa := a.Case.Frame.ActiveSession
	sb := b.Case.Frame.ActiveSession
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("active session differs at %d: %v vs %v", i, sa[i], sb[i])
		}
	}
}

func TestQueriesOfCoversLog(t *testing.T) {
	lab, err := GenerateOne(smallOptions(), 9, workload.KindBusinessSpike)
	if err != nil {
		t.Fatal(err)
	}
	total := lab.Case.Frame.NumObs()
	var logged float64
	for _, ts := range lab.Case.Frame.Templates {
		logged += ts.Count.Sum()
	}
	if float64(total) != logged {
		t.Errorf("queries = %d, logged executions = %v", total, logged)
	}
}

// corpusFingerprint flattens the fields of a generated case that every
// report reads, so corpora generated under different worker counts can be
// compared for exact equality.
func corpusFingerprint(t *testing.T, labs []*Labeled) string {
	t.Helper()
	var b strings.Builder
	for _, lab := range labs {
		fmt.Fprintf(&b, "%s|%s|%v|%d|%d\n", lab.Name, lab.Kind, lab.Detected, lab.Case.AS, lab.Case.AE)
		for _, v := range lab.Case.Frame.ActiveSession {
			fmt.Fprintf(&b, "%.12g ", v)
		}
		b.WriteByte('\n')
		for _, ts := range lab.Case.Frame.Templates {
			fmt.Fprintf(&b, "%s %.12g %.12g %.12g\n", ts.Meta.ID, ts.Count.Sum(), ts.SumRT.Sum(), ts.SumRows.Sum())
		}
		ids := make([]string, 0, len(lab.RSQLs)+len(lab.HSQLs))
		for id := range lab.RSQLs {
			ids = append(ids, "R"+string(id))
		}
		for id := range lab.HSQLs {
			ids = append(ids, "H"+string(id))
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "%v\n", ids)
	}
	return b.String()
}

// TestStreamWorkersEquivalence generates the same corpus at several worker
// counts and asserts delivery order and case content are identical — the
// determinism contract behind parallel case generation.
func TestStreamWorkersEquivalence(t *testing.T) {
	opt := smallOptions()
	opt.TraceSec = 600
	opt.AnomalyStartSec = 300
	opt.AnomalyMinDurSec = 120
	opt.AnomalyMaxDurSec = 180
	opt.Count = 4 // one case of each family

	var want string
	for _, workers := range []int{1, 2, 4} {
		o := opt
		o.Workers = workers
		var labs []*Labeled
		err := Stream(o, func(c *Labeled) error { labs = append(labs, c); return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fp := corpusFingerprint(t, labs)
		if workers == 1 {
			want = fp
			continue
		}
		if fp != want {
			t.Errorf("corpus at workers=%d differs from sequential corpus", workers)
		}
	}
}
