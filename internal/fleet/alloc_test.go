package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
)

// TestWindowAllocBudget budgets a window's way through the fleet in bytes,
// not time: a fleet-shaped window — 45 000 records of 28 templates over
// 300 s, emitted in completion order — is collected, sealed, searched for
// anomalies and committed to the in-memory long-term store by a
// one-instance trace-backed fleet. Per record that is the 32 B written into
// the collector's window log, 32 B in its arrival-ordered form (which the
// long-term store then adopts as it is) and 16 B in the frame's columns;
// the rest is per-template series, detection and the chunk behind the
// mid-append crash point. The budget is 1.25 × what this code measured; a
// per-window staging store, per-template observation tails or a commit that
// copies each breaks it.
func TestWindowAllocBudget(t *testing.T) {
	const records, seconds = 45_000, 300
	const measured = 94.0 // bytes per record
	rng := rand.New(rand.NewSource(5))
	recs := make([]dbsim.LogRecord, records)
	for i := range recs {
		resp := rng.ExpFloat64() * 40
		if rng.Intn(80) == 0 {
			resp = rng.Float64() * 20_000 // waited out a lock
		}
		recs[i] = dbsim.LogRecord{
			TemplateID:   fmt.Sprintf("PT%02d", rng.Intn(28)),
			Table:        "budget",
			Kind:         dbsim.KindSelect,
			ArrivalMs:    int64(i) * seconds * 1000 / records,
			ResponseMs:   resp,
			ExaminedRows: int64(rng.Intn(1000)),
		}
	}
	sort.SliceStable(recs, func(a, b int) bool { return ingest.EmissionMs(recs[a]) < ingest.EmissionMs(recs[b]) })
	rows := make([]dbsim.SecondMetrics, seconds)
	for i := range rows {
		rows[i] = dbsim.SecondMetrics{Second: int64(i), ActiveSession: 4 + rng.Float64(), CPUUsage: 0.3, QPS: records / seconds}
	}
	spec := TraceSpec("budget", seconds, func() (ingest.Source, error) {
		return ingest.NewSliceSource(0, seconds*1000, recs, rows), nil
	})
	f, err := New([]InstanceSpec{spec}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f.Start()
	err = f.Wait()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	reps, _ := f.Diagnoses("budget")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Records != records {
		t.Fatalf("committed %d windows, the first with %d records", len(reps), reps[0].Records)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / records
	if budget := 1.25 * measured; got > budget || got < 80 {
		t.Errorf("a window through the fleet allocates %.1f B per record, budget %.1f (floor 80)", got, budget)
	}
}
