package collect

import (
	"fmt"
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

func TestFrameMatchesSnapshotAggregates(t *testing.T) {
	c := NewCollector("frames", 0, 20_000, nil, nil)
	ingestMixed(c)
	c.IngestMetrics([]dbsim.SecondMetrics{{Second: 0, ActiveSession: 3, CPUUsage: 0.5}})
	f := c.Frame()
	snap := c.Snapshot()

	if len(f.Templates) != len(snap.Templates) {
		t.Fatalf("frame has %d templates, snapshot %d", len(f.Templates), len(snap.Templates))
	}
	for i := range snap.Templates {
		st, ft := snap.Templates[i], &f.Templates[i]
		if TemplateMeta(ft.Meta) != st.Meta {
			t.Errorf("template %d meta: frame %+v vs snapshot %+v", i, ft.Meta, st.Meta)
		}
		if ft.Count.Sum() != st.Count.Sum() || ft.SumRT.Sum() != st.SumRT.Sum() {
			t.Errorf("template %d aggregates differ", i)
		}
	}
	if f.ActiveSession[0] != snap.ActiveSession[0] || f.CPUUsage[0] != snap.CPUUsage[0] {
		t.Error("metric series differ between frame and snapshot")
	}

	// SnapshotOfFrame closes the loop: a snapshot view over the frame is
	// indistinguishable from the collector's own snapshot.
	view := SnapshotOfFrame(f)
	if view.Topic != snap.Topic || view.Seconds != snap.Seconds || view.StartMs != snap.StartMs {
		t.Errorf("SnapshotOfFrame header = %s/%d/%d", view.Topic, view.Seconds, view.StartMs)
	}
	for i := range snap.Templates {
		if view.Templates[i].Meta != snap.Templates[i].Meta {
			t.Errorf("SnapshotOfFrame template %d meta differs", i)
		}
	}
}

func TestFrameCacheInvalidation(t *testing.T) {
	c := NewCollector("frames", 0, 20_000, nil, nil)
	ingestMixed(c)
	f1 := c.Frame()
	if c.Frame() != f1 {
		t.Error("second Frame() call rebuilt an unchanged window")
	}
	c.Ingest(rec("T1", "SELECT 1", "a", dbsim.KindSelect, 6_000, 70, 7))
	f2 := c.Frame()
	if f2 == f1 {
		t.Error("Frame() returned a stale cache after Ingest")
	}
	if f2.NumObs() != f1.NumObs()+1 {
		t.Errorf("NumObs = %d after one more record (was %d)", f2.NumObs(), f1.NumObs())
	}
	c.IngestMetrics([]dbsim.SecondMetrics{{Second: 1, ActiveSession: 1}})
	if c.Frame() == f2 {
		t.Error("Frame() returned a stale cache after IngestMetrics")
	}
	// A throttled record carries no observation but still counts toward
	// the Throttled series, so it must invalidate too.
	tr := rec("T1", "SELECT 1", "a", dbsim.KindSelect, 7_000, 80, 8)
	tr.Throttled = true
	f3 := c.Frame()
	c.Ingest(tr)
	if c.Frame() == f3 {
		t.Error("Frame() returned a stale cache after a throttled Ingest")
	}
}

func TestSnapshotTemplateLookup(t *testing.T) {
	c := NewCollector("frames", 0, 20_000, nil, nil)
	ingestMixed(c)
	snap := c.Snapshot()
	ts := snap.Template(sqltemplate.ID("T2"))
	if ts == nil || ts.Meta.ID != "T2" {
		t.Fatalf("Template(T2) = %+v", ts)
	}
	if snap.Template(sqltemplate.ID("nope")) != nil {
		t.Error("lookup of a missing template succeeded")
	}
	// The lazy index must serve repeated lookups from the same map.
	if snap.Template(sqltemplate.ID("T1")) != snap.Template(sqltemplate.ID("T1")) {
		t.Error("repeated lookups disagree")
	}
}

// BenchmarkSnapshotTemplate measures the ID lookup that used to walk the
// template slice linearly — the lazy index makes it O(1) after the first
// call.
func BenchmarkSnapshotTemplate(b *testing.B) {
	c := NewCollector("bench", 0, 1_000_000, nil, nil)
	const n = 2000
	ids := make([]sqltemplate.ID, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("T%04d", i)
		c.Ingest(rec(id, "SELECT "+id, "t", dbsim.KindSelect, int64(i), 1, 1))
		ids[i] = sqltemplate.ID(id)
	}
	snap := c.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap.Template(ids[i%n]) == nil {
			b.Fatal("missing template")
		}
	}
}
