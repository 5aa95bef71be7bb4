package fleet

import (
	"io"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pinsql/internal/ingest"
	"pinsql/internal/sqltemplate"
)

// TestSlowLogExampleNamesAVictim pins a known miss on the committed slow
// log, monitored as `pinsqld -ingest` monitors it (120 s windows). Its
// incident is one reporting SELECT — the log's only record with a 55 s
// response and 4.8 M examined rows — holding row locks on orders while
// UPDATEs queue behind it. The monitor reports the UPDATE orders template
// as the top R-SQL, though most of that template's response time is lock
// wait, and does not report the blocker at all. A rule that reports a
// candidate whose time went mostly to lock waits as a victim rather than a
// verified root cause (ROADMAP.md item 2(b)) is what flips this test.
func TestSlowLogExampleNamesAVictim(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "ingest", "orders-slow.log.gz")
	open := func() (ingest.Source, error) { return ingest.Open(path, "", ingest.OpenOptions{}) }

	src, err := open()
	if err != nil {
		t.Fatal(err)
	}
	text := map[sqltemplate.ID]string{}
	responseMs, lockWaitMs := map[sqltemplate.ID]float64{}, map[sqltemplate.ID]float64{}
	var blockers []sqltemplate.ID
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			tpl := sqltemplate.New(r.SQL)
			text[tpl.ID] = tpl.Text
			responseMs[tpl.ID] += r.ResponseMs
			lockWaitMs[tpl.ID] += r.LockWaitMs
			if r.ExaminedRows == 4_800_000 && r.ResponseMs > 54_999 && r.ResponseMs < 55_001 {
				blockers = append(blockers, tpl.ID)
			}
		}
	}
	src.Close()
	if len(blockers) != 1 {
		t.Fatalf("the log holds %d records with a 55 s response and 4.8 M examined rows, want one", len(blockers))
	}
	blocker := blockers[0]

	_, f := runReport(t, []InstanceSpec{TraceSpec("orders-slow", 120, open)}, Options{Workers: 2})
	reps, _ := f.Diagnoses("orders-slow")
	var reported []sqltemplate.ID
	for _, rep := range reps {
		for _, a := range rep.Anomalies {
			for _, r := range a.RSQLs {
				reported = append(reported, sqltemplate.ID(r.ID))
			}
		}
	}
	if len(reported) == 0 {
		t.Fatal("the monitor reported no R-SQL")
	}
	top := reported[0]
	if !strings.HasPrefix(text[top], "UPDATE orders ") {
		t.Errorf("top R-SQL %s is %q, want the UPDATE orders template", top, text[top])
	}
	if share := lockWaitMs[top] / responseMs[top]; share < 0.6 {
		t.Errorf("top R-SQL %s spent %.0f%% of its response time waiting on locks, want at least 60%%", top, 100*share)
	}
	if slices.Contains(reported, blocker) {
		t.Errorf("the blocker %s (%q) is reported among the R-SQLs %v: the known miss is fixed, update this test", blocker, text[blocker], reported)
	}
}
