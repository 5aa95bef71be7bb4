package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/logstore"
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

// The fleet-shaped window of the budgets below: 45 000 records of 28
// templates over 300 s.
const budgetRecords, budgetSeconds = 45_000, 300

// budgetStream returns windows fleet-shaped windows back to back, records
// emitted in completion order, and their metric rows. One record in eighty
// waits out a lock, but none completes past its window's end. Spiked, every
// window's active sessions jump tenfold for 30 s at its second 120.
func budgetStream(windows int, spiked bool) ([]dbsim.LogRecord, []dbsim.SecondMetrics) {
	rng := rand.New(rand.NewSource(5))
	recs := make([]dbsim.LogRecord, windows*budgetRecords)
	for i := range recs {
		resp := rng.ExpFloat64() * 40
		if rng.Intn(80) == 0 {
			resp = rng.Float64() * 20_000 // waited out a lock
		}
		recs[i] = dbsim.LogRecord{
			TemplateID:   fmt.Sprintf("PT%02d", rng.Intn(28)),
			Table:        "budget",
			Kind:         dbsim.KindSelect,
			ArrivalMs:    int64(i) * budgetSeconds * 1000 / budgetRecords,
			ResponseMs:   resp,
			ExaminedRows: int64(rng.Intn(1000)),
		}
		if late := recs[i].ArrivalMs + int64(resp); late/(budgetSeconds*1000) != recs[i].ArrivalMs/(budgetSeconds*1000) {
			recs[i].ResponseMs = 1 // completes in the window it arrived in: every window holds 45 000
		}
	}
	sort.SliceStable(recs, func(a, b int) bool { return ingest.EmissionMs(recs[a]) < ingest.EmissionMs(recs[b]) })
	rows := make([]dbsim.SecondMetrics, windows*budgetSeconds)
	for i := range rows {
		rows[i] = dbsim.SecondMetrics{Second: int64(i), ActiveSession: 4 + rng.Float64(), CPUUsage: 0.3, QPS: budgetRecords / budgetSeconds}
		if sec := i % budgetSeconds; spiked && sec >= 120 && sec < 150 {
			rows[i].ActiveSession *= 10
		}
	}
	return recs, rows
}

// TestWindowAllocBudget budgets a window's way through the fleet in bytes,
// not time: a fleet-shaped window is collected, searched for anomalies and
// committed by a one-instance trace-backed fleet without a DataDir, whose
// commit drops the records unarranged. Per record that is the 32 B written
// into the collector's window log; the rest is per-template series and
// detection. Only a spiked window is sealed and diagnosed: its seal
// scatters the log into the frame's 16 B of columns. In the steady state —
// the second and third of three windows collected one after the other's
// commit — the log's 32 B are the chunks the previous window's commit
// released, and a quiet window's series are the ones it recycled. Each
// budget is 1.25 × what this code measured, and each floor the bytes named
// above; a per-window staging store, per-template observation tails, a
// commit that copies the records, a window log made afresh, a quiet window
// sealed or an arranged array (32 B) back in the seal breaks one.
func TestWindowAllocBudget(t *testing.T) {
	// One P: what a commit hands a pool, the next window finds, however
	// the two workers are scheduled (a Get takes no other P's private slot).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range []struct {
		name            string
		windows, warmup int     // windows played; of them, committed before the measurement starts
		spiked          bool    // every window holds a phenomenon
		measured, floor float64 // bytes per record
	}{
		{"first window", 1, 0, false, 41.3, 32},
		{"steady state", 3, 1, false, 2.0, 0},
		{"first window, spiked", 1, 0, true, 63.6, 48},
		{"steady state, spiked", 3, 1, true, 30.7, 16},
	} {
		if row.warmup > 0 && testrace.Enabled {
			continue // the pools drop a quarter of what they are handed
		}
		recs, rows := budgetStream(row.windows, row.spiked)
		// Lockstep, as a paced instance runs: a window's first second is read
		// once the window before it has committed (on the second worker).
		committed := make(chan struct{}, row.windows)
		spec := TraceSpec("budget", budgetSeconds, func() (ingest.Source, error) {
			return &gatedSource{Source: ingest.NewSliceSource(0, int64(len(rows))*1000, recs, rows), perWindow: budgetSeconds, gate: committed}, nil
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
			if rep.Records != budgetRecords {
				t.Fatalf("%s: window %d holds %d records", row.name, rep.Window, rep.Records)
			}
			if (len(rep.Anomalies) > 0) != row.spiked {
				t.Fatalf("%s: window %d holds %d phenomena", row.name, rep.Window, len(rep.Anomalies))
			}
		}
		got := float64(after.TotalAlloc-before.TotalAlloc) / float64((row.windows-row.warmup)*budgetRecords)
		if budget := 1.25 * row.measured; got > budget || got < row.floor {
			t.Errorf("%s: a window through the fleet allocates %.1f B per record, budget %.1f (floor %.0f)", row.name, got, budget, row.floor)
		}
	}
}

// TestLiveHeapAllocBudget: a fleet without a DataDir keeps no raw log, so
// its live heap does not grow with the windows it has committed. Two
// fleets play the same eight-window stream, one stopping after two windows
// and one after all eight; with each still reachable and the heap
// collected, the second may hold less than one window's records (45 000 ×
// 32 B) more than the first — six windows' reports, and nothing per record.
func TestLiveHeapAllocBudget(t *testing.T) {
	recs, rows := budgetStream(8, false)
	live := func(windows int) uint64 {
		spec := TraceSpec("heap", budgetSeconds, func() (ingest.Source, error) {
			return ingest.NewSliceSource(0, int64(len(rows))*1000, recs, rows), nil
		})
		spec.Windows = windows
		f, err := New([]InstanceSpec{spec}, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		// Closed, the fleet's workers have exited, so no task still holds a
		// window; the fleet itself stays reachable past the measurement.
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC() // the second collection empties the chunk pool
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if st := f.Status(); st.Committed != windows {
			t.Fatalf("committed %d of %d windows", st.Committed, windows)
		}
		return ms.HeapAlloc
	}
	two, eight := live(2), live(8)
	grew := int64(eight) - int64(two)
	if limit := int64(budgetRecords * unsafe.Sizeof(logstore.Record{})); grew >= limit {
		t.Errorf("six more committed windows grew the live heap by %d B, limit %d B (one window's records)", grew, limit)
	}
}
