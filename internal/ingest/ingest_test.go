package ingest

import (
	"io"
	"reflect"
	"slices"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/workload"
)

func rec(arrivalMs int64, responseMs float64) dbsim.LogRecord {
	return dbsim.LogRecord{TemplateID: "t", SQL: "SELECT 1", ArrivalMs: arrivalMs, ResponseMs: responseMs}
}

// cloneBatch copies a batch a test keeps past its source's next Next, which
// may overwrite the batch's slices.
func cloneBatch(b Batch) Batch {
	b.Records = slices.Clone(b.Records)
	b.Metrics = slices.Clone(b.Metrics)
	return b
}

// TestSliceSourceDense checks the dense-batch contract: one batch per
// second over the full range, records placed at their emission second in
// slice order with the monotone clamp, metrics placed by absolute second.
func TestSliceSourceDense(t *testing.T) {
	recs := []dbsim.LogRecord{
		rec(100, 50),    // emission 150 → sec 0
		rec(500, 2200),  // emission 2700 → sec 2
		rec(900, 100),   // emission 1000 → sec 1, but clamped to 2 (monotone)
		rec(3100, 9000), // emission 12100 → past the range, clamped to last sec
	}
	rows := []dbsim.SecondMetrics{
		{Second: 1, ActiveSession: 3},
		{Second: 1, ActiveSession: 4}, // duplicate second: both kept in the batch
		{Second: 9, ActiveSession: 7}, // out of range: dropped
	}
	src := NewSliceSource(0, 4000, recs, rows)
	if from, to := src.Bounds(); from != 0 || to != 4000 {
		t.Fatalf("bounds = [%d, %d)", from, to)
	}
	var got []Batch
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, cloneBatch(b))
	}
	if len(got) != 4 {
		t.Fatalf("batches = %d, want 4 (dense)", len(got))
	}
	for i, b := range got {
		if b.Second != int64(i) {
			t.Fatalf("batch %d has second %d", i, b.Second)
		}
	}
	if len(got[0].Records) != 1 || len(got[1].Records) != 0 || len(got[2].Records) != 2 || len(got[3].Records) != 1 {
		t.Fatalf("record placement: %d/%d/%d/%d", len(got[0].Records), len(got[1].Records), len(got[2].Records), len(got[3].Records))
	}
	// Monotone clamp keeps slice order: the 2700-emission record stays
	// ahead of the 1000-emission one inside second 2.
	if got[2].Records[0].ArrivalMs != 500 || got[2].Records[1].ArrivalMs != 900 {
		t.Fatalf("second 2 order: %+v", got[2].Records)
	}
	if len(got[1].Metrics) != 2 || got[1].Metrics[1].ActiveSession != 4 {
		t.Fatalf("metric placement: %+v", got[1].Metrics)
	}
	if len(got[3].Metrics) != 0 {
		t.Fatalf("out-of-range metric row kept: %+v", got[3].Metrics)
	}
}

// TestPlayerWindows drives a 4-second trace through two 2-second windows:
// dense rows out (duplicates last-wins, rebased to window-relative),
// record late-count, the `more` flag, and io.EOF on the window after the
// end.
func TestPlayerWindows(t *testing.T) {
	recs := []dbsim.LogRecord{
		rec(100, 50),   // sec 0
		rec(1200, 100), // sec 1
		rec(1900, 700), // emission 2600 → sec 2, arrival inside window 1 → late for window 2
		rec(3000, 500), // sec 3
	}
	rows := []dbsim.SecondMetrics{
		{Second: 0, ActiveSession: 1},
		{Second: 1, ActiveSession: 2},
		{Second: 2, ActiveSession: 5},
		{Second: 2, ActiveSession: 6}, // duplicate: last wins
		{Second: 3, ActiveSession: 9},
	}
	p := NewPlayer(NewSliceSource(0, 4000, recs, rows))

	var w0 []dbsim.LogRecord
	rows0, more, err := p.PlayWindow(0, 2000, func(r dbsim.LogRecord) { w0 = append(w0, r) })
	if err != nil || !more {
		t.Fatalf("window 0: more=%v err=%v", more, err)
	}
	if len(w0) != 2 || len(rows0) != 2 {
		t.Fatalf("window 0: %d recs, %d rows", len(w0), len(rows0))
	}
	if rows0[0].Second != 0 || rows0[1].Second != 1 || rows0[1].ActiveSession != 2 {
		t.Fatalf("window 0 rows: %+v", rows0)
	}

	var w1 []dbsim.LogRecord
	rows1, more, err := p.PlayWindow(2000, 4000, func(r dbsim.LogRecord) { w1 = append(w1, r) })
	if err != nil || more {
		t.Fatalf("window 1: more=%v err=%v", more, err)
	}
	if len(w1) != 2 {
		t.Fatalf("window 1: %d recs", len(w1))
	}
	if rows1[0].Second != 0 || rows1[0].ActiveSession != 6 || rows1[1].ActiveSession != 9 {
		t.Fatalf("window 1 rows: %+v", rows1)
	}
	st := p.Stats()
	if st.Records != 4 || st.Late != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LagSeconds != 0 {
		t.Fatalf("lag after full replay: %v", st.LagSeconds)
	}

	if _, _, err := p.PlayWindow(4000, 6000, nil); err != io.EOF {
		t.Fatalf("window past the end: err=%v, want io.EOF", err)
	}
}

// TestPlayerSkipTo drains a generic (non-seeking) source up to the resume
// boundary without counting the skipped records.
func TestPlayerSkipTo(t *testing.T) {
	recs := []dbsim.LogRecord{rec(100, 10), rec(1100, 10), rec(2100, 10)}
	p := NewPlayer(NewSliceSource(0, 3000, recs, nil))
	if err := p.SkipTo(2000); err != nil {
		t.Fatal(err)
	}
	var got []dbsim.LogRecord
	if _, _, err := p.PlayWindow(2000, 3000, func(r dbsim.LogRecord) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ArrivalMs != 2100 {
		t.Fatalf("after skip: %+v", got)
	}
	if st := p.Stats(); st.Records != 1 {
		t.Fatalf("skipped records counted: %+v", st)
	}
}

// TestSimSourceMatchesDirectRun is the seam's no-op proof at unit level:
// the record stream and metric rows the Player extracts from a SimSource
// are bit-identical to calling dbsim.Instance.Run directly with the
// pre-seam per-window reseed/source arguments.
func TestSimSourceMatchesDirectRun(t *testing.T) {
	const (
		seed      = int64(11)
		windows   = 2
		windowSec = 60
	)
	setup := func() (*workload.World, *dbsim.Instance) {
		world := workload.DefaultWorld(seed)
		world.AddFillerServices(2, 4)
		cfg := dbsim.DefaultConfig()
		cfg.Seed = seed
		sim := dbsim.NewInstance(cfg)
		world.Apply(sim)
		return world, sim
	}

	world, sim := setup()
	p := NewPlayer(NewSimSource(world, sim, seed, windows, windowSec))
	dworld, dsim := setup()

	windowMs := int64(windowSec) * 1000
	for w := 0; w < windows; w++ {
		fromMs := int64(w) * windowMs
		toMs := fromMs + windowMs
		var got []dbsim.LogRecord
		rows, more, err := p.PlayWindow(fromMs, toMs, func(r dbsim.LogRecord) { got = append(got, r) })
		if err != nil {
			t.Fatal(err)
		}
		if wantMore := w < windows-1; more != wantMore {
			t.Fatalf("window %d: more=%v, want %v", w, more, wantMore)
		}

		var want []dbsim.LogRecord
		dsim.ReseedSampling(WindowSeed(seed, w))
		secs, err := dsim.Run(dbsim.RunOptions{
			StartMs: fromMs,
			EndMs:   toMs,
			Source:  dworld.Source(fromMs, toMs, seed+int64(w)),
			Sink:    func(r dbsim.LogRecord) { want = append(want, r) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: record stream diverged (%d vs %d records)", w, len(got), len(want))
		}
		if !reflect.DeepEqual(rows, secs) {
			t.Fatalf("window %d: metric rows diverged\n got: %+v\nwant: %+v", w, rows[:3], secs[:3])
		}
	}
}

// TestSimSourceSeek proves SeekMs(w·window) reproduces window w exactly as
// a fresh source that played everything up to it — the crash-recovery
// path.
func TestSimSourceSeek(t *testing.T) {
	const (
		seed      = int64(7)
		windows   = 3
		windowSec = 30
	)
	setup := func() *Player {
		world := workload.DefaultWorld(seed)
		cfg := dbsim.DefaultConfig()
		cfg.Seed = seed
		sim := dbsim.NewInstance(cfg)
		world.Apply(sim)
		return NewPlayer(NewSimSource(world, sim, seed, windows, windowSec))
	}
	windowMs := int64(windowSec) * 1000

	full := setup()
	var wantRecs []dbsim.LogRecord
	var wantRows []dbsim.SecondMetrics
	for w := 0; w < windows; w++ {
		sink := func(r dbsim.LogRecord) {}
		if w == 2 {
			sink = func(r dbsim.LogRecord) { wantRecs = append(wantRecs, r) }
		}
		rows, _, err := full.PlayWindow(int64(w)*windowMs, int64(w+1)*windowMs, sink)
		if err != nil {
			t.Fatal(err)
		}
		if w == 2 {
			wantRows = rows
		}
	}

	seeked := setup()
	if err := seeked.SkipTo(2 * windowMs); err != nil {
		t.Fatal(err)
	}
	var gotRecs []dbsim.LogRecord
	gotRows, more, err := seeked.PlayWindow(2*windowMs, 3*windowMs, func(r dbsim.LogRecord) { gotRecs = append(gotRecs, r) })
	if err != nil {
		t.Fatal(err)
	}
	if more {
		t.Fatal("seeked source reports more after the last window")
	}
	if !reflect.DeepEqual(gotRecs, wantRecs) || !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatal("seeked window 2 diverged from sequentially played window 2")
	}
}

// TestPlayWindowWrapperMatchesBatches: PlayWindow through the per-record
// wrapper delivers the same record sequence, metric rows, more/io.EOF
// results and Stats (Records, Late) as PlayWindowBatches, which hands over
// each second's records in one call. A nil sink still counts.
func TestPlayWindowWrapperMatchesBatches(t *testing.T) {
	var recs []dbsim.LogRecord
	for i := 0; i < 400; i++ {
		// Emission order; long responses make some records late for the
		// window their completion falls into, and some seconds stay empty.
		arrival := int64(i*23 - i%7*900)
		if arrival < 0 {
			arrival = 0
		}
		recs = append(recs, dbsim.LogRecord{TemplateID: "t", ArrivalMs: arrival, ResponseMs: float64(i % 7 * 900), ExaminedRows: int64(i)})
	}
	rows := []dbsim.SecondMetrics{{Second: 0, ActiveSession: 1}, {Second: 4, ActiveSession: 2}, {Second: 4, ActiveSession: 3}, {Second: 11, ActiveSession: 4}}
	byRecord := NewPlayer(NewSliceSource(0, 12_000, recs, rows))
	byBatch := NewPlayer(NewSliceSource(0, 12_000, recs, rows))
	quiet := NewPlayer(NewSliceSource(0, 12_000, recs, rows))

	for w := int64(0); w < 5; w++ { // the fifth window lies past the trace
		fromMs, toMs := w*3000, w*3000+3000
		var want, got []dbsim.LogRecord
		calls := 0
		wantRows, wantMore, wantErr := byRecord.PlayWindow(fromMs, toMs, func(r dbsim.LogRecord) { want = append(want, r) })
		gotRows, gotMore, gotErr := byBatch.PlayWindowBatches(fromMs, toMs, func(b []dbsim.LogRecord) {
			got = append(got, b...)
			calls++
		})
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRows, wantRows) || gotMore != wantMore || gotErr != wantErr {
			t.Fatalf("window %d: batches gave %d records, %d rows, more=%v, err=%v; wrapper %d, %d, %v, %v",
				w, len(got), len(gotRows), gotMore, gotErr, len(want), len(wantRows), wantMore, wantErr)
		}
		if calls > 3 {
			t.Fatalf("window %d: %d sink calls for 3 seconds", w, calls)
		}
		if _, _, err := quiet.PlayWindow(fromMs, toMs, nil); err != wantErr {
			t.Fatalf("window %d: nil sink err=%v, want %v", w, err, wantErr)
		}
		if w == 4 && wantErr != io.EOF {
			t.Fatalf("window past the end: err=%v, want io.EOF", wantErr)
		}
	}
	want := byRecord.Stats()
	if want.Records != int64(len(recs)) || want.Late == 0 {
		t.Fatalf("fixture: stats %+v", want)
	}
	if got := byBatch.Stats(); got != want {
		t.Fatalf("batch stats %+v, wrapper stats %+v", got, want)
	}
	if got := quiet.Stats(); got != want {
		t.Fatalf("nil-sink stats %+v, wrapper stats %+v", got, want)
	}
}
