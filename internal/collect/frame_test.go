package collect

import (
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/logstore"
	"pinsql/internal/sqltemplate"
)

// ingestMixed feeds a small deterministic workload: three templates with
// interleaved, deliberately unordered arrivals plus one throttled record.
func ingestMixed(c *Collector) {
	c.Ingest(rec("T1", "SELECT 1", "a", dbsim.KindSelect, 5_000, 10, 1))
	c.Ingest(rec("T2", "UPDATE t", "b", dbsim.KindUpdate, 2_000, 20, 2))
	c.Ingest(rec("T1", "SELECT 1", "a", dbsim.KindSelect, 1_000, 30, 3))
	c.Ingest(rec("T3", "DELETE x", "c", dbsim.KindDelete, 9_000, 40, 4))
	c.Ingest(rec("T1", "SELECT 1", "a", dbsim.KindSelect, 1_000, 50, 5)) // arrival tie with the 30ms obs
	throttled := rec("T2", "UPDATE t", "b", dbsim.KindUpdate, 3_000, 60, 6)
	throttled.Throttled = true
	c.Ingest(throttled)
}

func TestFrameMatchesStoreScan(t *testing.T) {
	store := logstore.New(0)
	c := NewCollector("frames", 0, 20_000, nil, store)
	ingestMixed(c)
	f := c.Frame()

	// Per template, the frame's observation column must equal the store's
	// arrival-sorted scan of that template — same values, same tie order.
	type obs struct {
		a int64
		r float64
	}
	fromStore := make(map[int32][]obs)
	store.ScanFunc("frames", 0, 20_000, func(r logstore.Record) bool {
		fromStore[r.TemplateIdx] = append(fromStore[r.TemplateIdx], obs{r.ArrivalMs, r.ResponseMs})
		return true
	})
	total := 0
	for pos := range f.Templates {
		arr, resp := f.Obs(pos)
		want := fromStore[f.Templates[pos].Meta.Index]
		if len(arr) != len(want) {
			t.Fatalf("template %d: %d obs in frame, %d in store", pos, len(arr), len(want))
		}
		for i := range want {
			if arr[i] != want[i].a || resp[i] != want[i].r {
				t.Fatalf("template %d obs %d = (%d, %g), store has (%d, %g)",
					pos, i, arr[i], resp[i], want[i].a, want[i].r)
			}
		}
		total += len(arr)
	}
	if total != f.NumObs() {
		t.Errorf("NumObs = %d, summed %d", f.NumObs(), total)
	}
}

// TestFrameMatchesSnapshotAggregates: the sealed frame holds the window's
// aggregates and metrics as the record-by-record sums, equal to the
// independent reference's, and SnapshotOfFrame is the frame itself.
func TestFrameMatchesSnapshotAggregates(t *testing.T) {
	c := NewCollector("frames", 0, 20_000, nil, nil)
	ingestMixed(c)
	c.IngestMetricsAt([]dbsim.SecondMetrics{{Second: 0, ActiveSession: 3, CPUUsage: 0.5}})
	want := c.RebuildFrame()
	f := c.Frame()
	if err := framesEqual(f, want); err != nil {
		t.Fatal(err)
	}
	t1 := f.Template("T1")
	if t1.Count[1] != 2 || t1.Count[5] != 1 || t1.SumRT.Sum() != 90 || t1.MeanRows() != 3 {
		t.Errorf("T1 aggregates: count %v, sumRT %v, mean rows %v", t1.Count, t1.SumRT.Sum(), t1.MeanRows())
	}
	if t2 := f.Template("T2"); t2.Count.Sum() != 1 || t2.Throttled[3] != 1 {
		t.Errorf("T2 aggregates: count %v, throttled %v", t2.Count, t2.Throttled)
	}
	if f.ActiveSession[0] != 3 || f.CPUUsage[0] != 0.5 {
		t.Error("metric row not in the frame")
	}
	if SnapshotOfFrame(f) != f {
		t.Error("SnapshotOfFrame is not the identity")
	}
}

// TestFrameSealIsTerminal: the first Frame seals the window — every later
// call returns that frame, and any ingest panics, leaving it as it was.
func TestFrameSealIsTerminal(t *testing.T) {
	c := NewCollector("frames", 0, 20_000, nil, nil)
	ingestMixed(c)
	f := c.Frame()
	want := c.RebuildFrame()
	if c.Frame() != f {
		t.Error("a second Frame() returned another frame")
	}
	for name, ingest := range map[string]func(){
		"Ingest":          func() { c.Ingest(rec("T1", "SELECT 1", "a", dbsim.KindSelect, 6_000, 70, 7)) },
		"IngestBatch":     func() { c.IngestBatch(nil) },
		"IngestMetricsAt": func() { c.IngestMetricsAt([]dbsim.SecondMetrics{{Second: 1, ActiveSession: 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after the seal did not panic", name)
				}
			}()
			ingest()
		}()
	}
	if err := framesEqual(f, want); err != nil {
		t.Fatalf("an ingest after the seal changed the frame: %v", err)
	}
	if c.Frame() != f || c.Records() != int64(f.NumObs()) || len(c.TakeArranged()) == 0 {
		t.Error("the sealed collector no longer answers Frame, Records and TakeArranged")
	}
}

func TestSnapshotTemplateLookup(t *testing.T) {
	c := NewCollector("frames", 0, 20_000, nil, nil)
	ingestMixed(c)
	f := c.Frame()
	ts := f.Template(sqltemplate.ID("T2"))
	if ts == nil || ts.Meta.ID != "T2" {
		t.Fatalf("Template(T2) = %+v", ts)
	}
	if f.Template(sqltemplate.ID("nope")) != nil {
		t.Error("lookup of a missing template succeeded")
	}
	if f.Template(sqltemplate.ID("T1")) != f.Template(sqltemplate.ID("T1")) {
		t.Error("repeated lookups disagree")
	}
}
