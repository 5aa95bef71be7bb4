package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/testrace"
)

// gatedSource holds back the first second of every window but the first
// until gate has been signalled once more.
type gatedSource struct {
	ingest.Source
	perWindow, next int
	gate            <-chan struct{}
}

func (g *gatedSource) Next() (ingest.Batch, error) {
	if g.next > 0 && g.next%g.perWindow == 0 {
		<-g.gate
	}
	g.next++
	return g.Source.Next()
}

// TestWindowAllocBudget budgets a window's way through the fleet in bytes,
// not time: a fleet-shaped window — 45 000 records of 28 templates over
// 300 s, emitted in completion order — is collected, sealed, searched for
// anomalies and committed to the in-memory long-term store by a
// one-instance trace-backed fleet. Per record that is the 32 B written into
// the collector's window log, 32 B in its arrival-ordered form (which the
// long-term store then adopts as it is) and 16 B in the frame's columns;
// the rest is per-template series, detection and the chunk behind the
// mid-append crash point. In the steady state — the second and third of
// three windows collected one after the other's commit — the log's 32 B are
// the chunks the previous window's commit released. Each budget is 1.25 ×
// what this code measured; a per-window staging store, per-template
// observation tails, a commit that copies each or a window log made afresh
// breaks one.
func TestWindowAllocBudget(t *testing.T) {
	const records, seconds = 45_000, 300
	for _, row := range []struct {
		name            string
		windows, warmup int     // windows played; of them, committed before the measurement starts
		measured, floor float64 // bytes per record
	}{
		{"first window", 1, 0, 94.3, 80},
		{"steady state", 3, 1, 61.4, 48},
	} {
		if row.warmup > 0 && testrace.Enabled {
			continue // the chunk pool drops a quarter of what it is handed
		}
		rng := rand.New(rand.NewSource(5))
		recs := make([]dbsim.LogRecord, row.windows*records)
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
			if late := recs[i].ArrivalMs + int64(resp); late/(seconds*1000) != recs[i].ArrivalMs/(seconds*1000) {
				recs[i].ResponseMs = 1 // completes in the window it arrived in: every window holds 45 000
			}
		}
		sort.SliceStable(recs, func(a, b int) bool { return ingest.EmissionMs(recs[a]) < ingest.EmissionMs(recs[b]) })
		rows := make([]dbsim.SecondMetrics, row.windows*seconds)
		for i := range rows {
			rows[i] = dbsim.SecondMetrics{Second: int64(i), ActiveSession: 4 + rng.Float64(), CPUUsage: 0.3, QPS: records / seconds}
		}
		// Lockstep, as a paced instance runs: a window's first second is read
		// once the window before it has committed (on the second worker).
		committed := make(chan struct{}, row.windows)
		spec := TraceSpec("budget", seconds, func() (ingest.Source, error) {
			return &gatedSource{Source: ingest.NewSliceSource(0, int64(len(rows))*1000, recs, rows), perWindow: seconds, gate: committed}, nil
		})
		var before, after runtime.MemStats
		f, err := New([]InstanceSpec{spec}, Options{Workers: 2, OnCommit: func(_ string, rep *WindowReport) {
			if rep.Window == row.warmup-1 {
				runtime.ReadMemStats(&before) // the steady state starts behind this commit
			}
			committed <- struct{}{}
		}})
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		if row.warmup == 0 {
			runtime.GC() // the second collection empties the chunk pool
			runtime.ReadMemStats(&before)
		}
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
		if len(reps) != row.windows {
			t.Fatalf("%s: committed %d windows", row.name, len(reps))
		}
		for _, rep := range reps {
			if rep.Records != records {
				t.Fatalf("%s: window %d holds %d records", row.name, rep.Window, rep.Records)
			}
		}
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64((row.windows-row.warmup)*records)
		if budget := 1.25 * row.measured; got > budget || got < row.floor {
			t.Errorf("%s: a window through the fleet allocates %.1f B per record, budget %.1f (floor %.0f)", row.name, got, budget, row.floor)
		}
	}
}
