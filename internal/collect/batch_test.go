package collect

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/logstore"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/window"
)

// batchStream draws one record stream for the window [10 s, 70 s):
// pre-digested and raw-SQL records (some templates reachable both ways),
// throttled ones, arrivals before the window (including the −1..−999 ms
// band integer division would round into second 0), in its last second and
// past its end, new templates appearing throughout.
func batchStream(rng *rand.Rand, n int) []dbsim.LogRecord {
	const startMs, endMs = 10_000, 70_000
	recs := make([]dbsim.LogRecord, n)
	for i := range recs {
		tpl := rng.Intn(4 + 40*i/n) // the template universe grows along the stream
		sql := fmt.Sprintf("SELECT c%d FROM batch WHERE id = %d", tpl, rng.Intn(30))
		r := rec("", sql, "batch", dbsim.KindSelect, 0, float64(rng.Intn(500))/4+1, int64(rng.Intn(1000)))
		switch rng.Intn(3) {
		case 0:
			r.TemplateID = fmt.Sprintf("PT%02d", tpl)
		case 1: // pre-digested to the ID the raw spelling normalizes to
			r.TemplateID = string(sqltemplate.New(sql).ID)
		}
		switch rng.Intn(12) {
		case 0:
			r.ArrivalMs = startMs - 1 - rng.Int63n(2000)
		case 1:
			r.ArrivalMs = endMs - 1 - rng.Int63n(1000)
		case 2:
			r.ArrivalMs = endMs + rng.Int63n(2000)
		default:
			r.ArrivalMs = startMs + rng.Int63n(endMs-startMs)
		}
		r.Throttled = rng.Intn(12) == 0
		recs[i] = r
	}
	return recs
}

// TestIngestBatchMatchesRecordLoop: one record stream split at arbitrary
// batch boundaries — batches of one and one batch for everything included —
// and sealed once leaves the frame, the caller's store's scan, the registry
// and the fingerprint-index counters exactly as the record-at-a-time run
// does; and the arranged records are the stable sort of the
// window log — ties, out-of-window and throttled records included —
// whenever they are taken.
func TestIngestBatchMatchesRecordLoop(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := batchStream(rng, 1500)
		// takeAfter[i] takes the arranged records once record i is in.
		takeAfter := map[int]bool{len(recs) - 1: true}
		for k := 0; k < int(seed%4)*3; k++ {
			takeAfter[rng.Intn(len(recs))] = true
		}

		run := func(cut func() int) (*window.Frame, []logstore.Record, *Collector) {
			store := logstore.New(0)
			c := NewCollector("batch", 10_000, 70_000, NewRegistry(), store)
			for lo := 0; lo < len(recs); {
				hi := min(lo+cut(), len(recs))
				for i := lo; i < hi; i++ {
					if takeAfter[i] {
						hi = i + 1
					}
				}
				c.IngestBatch(recs[lo:hi])
				if takeAfter[hi-1] {
					if got, want := c.TakeArranged(), arrivalOrder(c); !slices.Equal(got, want) {
						t.Fatalf("seed %d: after record %d the arranged array holds %d records, the stable sort %d, or differ", seed, hi-1, len(got), len(want))
					}
				}
				lo = hi
			}
			return c.Frame(), store.Scan("batch", -1<<62, 1<<62), c
		}

		wantFrame, wantScan, want := run(func() int { return 1 })
		if want.Records() == 0 || want.Registry().Len() < 30 {
			t.Fatalf("seed %d: fixture too tame: %d records, %d templates", seed, want.Records(), want.Registry().Len())
		}
		cuts := map[string]func() int{
			"whole":  func() int { return len(recs) },
			"random": func() int { return 1 + rng.Intn(200) },
			"small":  func() int { return 1 + rng.Intn(3) },
		}
		for name, cut := range cuts {
			gotFrame, gotScan, got := run(cut)
			if err := framesEqual(gotFrame, wantFrame); err != nil {
				t.Fatalf("seed %d %s: frame diverges from the record loop: %v", seed, name, err)
			}
			if !reflect.DeepEqual(gotScan, wantScan) {
				t.Fatalf("seed %d %s: store scan diverges (%d vs %d records)", seed, name, len(gotScan), len(wantScan))
			}
			if !reflect.DeepEqual(got.Registry().Since(0), want.Registry().Since(0)) {
				t.Fatalf("seed %d %s: registry diverges", seed, name)
			}
			gh, gm, _ := got.Registry().RawCacheStats()
			wh, wm, _ := want.Registry().RawCacheStats()
			if gh != wh || gm != wm || got.Records() != want.Records() {
				t.Fatalf("seed %d %s: fingerprint index %d/%d, records %d; record loop %d/%d, %d",
					seed, name, gh, gm, got.Records(), wh, wm, want.Records())
			}
			if err := framesEqual(gotFrame, got.RebuildFrame()); err != nil {
				t.Fatalf("seed %d %s: frame diverges from rebuild: %v", seed, name, err)
			}
		}
	}
}

// windowBatches is one 300 s window of 150 pre-digested records a second
// over 28 templates, in per-second batches.
func windowBatches() [][]dbsim.LogRecord {
	rng := rand.New(rand.NewSource(3))
	batches := make([][]dbsim.LogRecord, 300)
	for s := range batches {
		batches[s] = make([]dbsim.LogRecord, 150)
		for i := range batches[s] {
			tpl := rng.Intn(28)
			batches[s][i] = rec(fmt.Sprintf("PT%02d", tpl), "", "budget", dbsim.KindSelect,
				int64(s)*1000+rng.Int63n(1000), float64(rng.Intn(500))/4+1, int64(rng.Intn(1000)))
		}
	}
	return batches
}

// TestIngestBatchAllocBudget budgets the work of collecting a window in
// objects and bytes, not time. Warm, a 150-record second costs O(1) objects
// amortised — a log chunk now and then, no per-record object — and a whole
// window costs a bounded number of bytes per record: the floor is the 32 B
// record written once into the window log, the rest is the last chunk's
// slack, the per-template series, the per-second counts and the identity
// table; the chunks are made here, not drawn from a released window
// (TestReleaseRecyclesChunks and the fleet's TestWindowAllocBudget have that
// case). The bytes budget is 1.25 × what this code measured, and the test
// checks that it bites: a per-window 65 536-slot record channel put back
// must break it.
func TestIngestBatchAllocBudget(t *testing.T) {
	drainChunkPool() // no collector here is released: every chunk is made
	batches := windowBatches()
	reg := NewRegistry()
	for _, b := range batches {
		for _, r := range b {
			reg.Intern(r)
		}
	}
	warm := NewCollector("budget", 0, 300_000, reg, nil)
	warm.IngestBatch(batches[0])
	next := 1
	perBatch := testing.AllocsPerRun(len(batches)-2, func() {
		warm.IngestBatch(batches[next])
		next++
	})
	if perBatch > 1 {
		t.Errorf("a warm 150-record IngestBatch allocates %.1f objects, budget 1", perBatch)
	}

	var sink chan dbsim.LogRecord
	window := func(perWindow func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if perWindow != nil {
			perWindow()
		}
		c := NewCollector("budget", 0, 300_000, reg, nil)
		for _, b := range batches {
			c.IngestBatch(b)
		}
		runtime.ReadMemStats(&after)
		if c.Records() != 45_000 {
			t.Fatalf("window collected %d records", c.Records())
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / 45_000
	}
	const measured = 39.6 // bytes per record
	budget := 1.25 * measured
	if got := window(nil); got > budget || got < 32 {
		t.Errorf("collecting a window allocates %.1f B per record, budget %.1f (floor 32)", got, budget)
	}
	if got := window(func() { sink = make(chan dbsim.LogRecord, 65536) }); got <= budget {
		t.Errorf("budget does not bite: %.1f B per record with a per-window channel, budget %.1f", got, budget)
	}
	_ = sink
}
