package main

import (
	"bytes"
	"sort"
	"testing"

	"pinsql/internal/cases"
	"pinsql/internal/workload"
)

// TestRenderIsByteStable: the label sets of a case are maps, so a document
// that listed them in iteration order differed from run to run. The same
// case must render to the same bytes, with both truth lists sorted.
func TestRenderIsByteStable(t *testing.T) {
	opt := cases.DefaultOptions()
	opt.TraceSec = 600
	opt.AnomalyStartSec = 300
	opt.AnomalyMinDurSec = 120
	opt.AnomalyMaxDurSec = 180
	opt.FillerServices = 1
	opt.FillerSpecs = 3
	opt.HistoryDays = []int{1}
	lab, err := cases.GenerateOne(opt, 2, workload.KindLockStorm)
	if err != nil {
		t.Fatal(err)
	}
	if len(lab.HSQLs) < 2 {
		t.Fatalf("fixture lost its teeth: %d H-SQL labels, no order to get wrong", len(lab.HSQLs))
	}
	var first bytes.Buffer
	doc := render(lab, false)
	if err := doc.Write(&first); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(doc.Truth.RSQLs) || !sort.StringsAreSorted(doc.Truth.HSQLs) {
		t.Errorf("truth lists not sorted: %v / %v", doc.Truth.RSQLs, doc.Truth.HSQLs)
	}
	if len(doc.Queries) != 0 {
		t.Errorf("-queries=false kept %d query rows", len(doc.Queries))
	}
	for i := 0; i < 8; i++ {
		var again bytes.Buffer
		if err := render(lab, false).Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("render %d of the same case differs from the first", i+2)
		}
	}
}
