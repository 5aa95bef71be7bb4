package caseio

import (
	"bytes"
	"testing"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// caseOf wraps a frame in an anomaly case with one history window.
func caseOf(t *testing.T, fr *window.Frame) *anomaly.Case {
	t.Helper()
	c := anomaly.NewCase(fr, anomaly.Phenomenon{Rule: "active_session_anomaly", Start: 10, End: 40})
	c.History = []anomaly.HistoryWindow{{
		DaysAgo: 1,
		Counts: map[sqltemplate.ID]timeseries.Series{
			"A1": make(timeseries.Series, fr.Seconds),
		},
	}}
	return c
}

// frameSample builds a real collector window and returns the collector.
func frameSample(t *testing.T) *collect.Collector {
	t.Helper()
	coll := collect.NewCollector("frame-io", 0, 60_000, nil, nil)
	recs := []dbsim.LogRecord{
		{TemplateID: "B2", SQL: "UPDATE t SET x = ?", Table: "t", Kind: dbsim.KindUpdate, ArrivalMs: 500, ResponseMs: 90, ExaminedRows: 3},
		{TemplateID: "A1", SQL: "SELECT * FROM t", Table: "t", Kind: dbsim.KindSelect, ArrivalMs: 2_000, ResponseMs: 10, ExaminedRows: 1},
		{TemplateID: "A1", SQL: "SELECT * FROM t", Table: "t", Kind: dbsim.KindSelect, ArrivalMs: 100, ResponseMs: 25, ExaminedRows: 2},
		{TemplateID: "C3", SQL: "DELETE FROM u", Table: "u", Kind: dbsim.KindDelete, ArrivalMs: 7_000, ResponseMs: 40, ExaminedRows: 4},
	}
	for _, r := range recs {
		coll.Ingest(r)
	}
	coll.IngestMetricsAt([]dbsim.SecondMetrics{{Second: 0, ActiveSession: 2, CPUUsage: 0.4}})
	return coll
}

func TestToFrameRoundTrip(t *testing.T) {
	coll := frameSample(t)
	fr := coll.Frame()
	c := caseOf(t, fr)

	var buf bytes.Buffer
	if err := FromFrame(c, fr).Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c2, fr2, err := loaded.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if c2.AS != c.AS || c2.AE != c.AE {
		t.Errorf("window [%d,%d) vs [%d,%d)", c2.AS, c2.AE, c.AS, c.AE)
	}
	if len(fr2.Templates) != len(fr.Templates) || fr2.NumObs() != fr.NumObs() {
		t.Fatalf("reloaded frame %d templates / %d obs, want %d / %d",
			len(fr2.Templates), fr2.NumObs(), len(fr.Templates), fr.NumObs())
	}
	for pos := range fr.Templates {
		if fr2.Templates[pos].Meta.ID != fr.Templates[pos].Meta.ID {
			t.Fatalf("template %d is %s, want %s", pos, fr2.Templates[pos].Meta.ID, fr.Templates[pos].Meta.ID)
		}
		arr, resp := fr.Obs(pos)
		arr2, resp2 := fr2.Obs(pos)
		if len(arr2) != len(arr) {
			t.Fatalf("template %d obs = %d, want %d", pos, len(arr2), len(arr))
		}
		for i := range arr {
			if arr2[i] != arr[i] || resp2[i] != resp[i] {
				t.Fatalf("template %d obs %d = (%d, %g), want (%d, %g)",
					pos, i, arr2[i], resp2[i], arr[i], resp[i])
			}
		}
	}
	for i, p := range fr.ByID {
		if fr2.ByID[i] != p {
			t.Fatalf("ByID = %v, want %v", fr2.ByID, fr.ByID)
		}
	}
}
