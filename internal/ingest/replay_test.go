package ingest

import (
	"io"
	"testing"

	"pinsql/internal/dbsim"
)

// rawSource feeds hand-built sparse batches, for replay-clock tests.
type rawSource struct {
	batches []Batch
	pos     int
}

func (r *rawSource) Next() (Batch, error) {
	if r.pos >= len(r.batches) {
		return Batch{}, io.EOF
	}
	b := r.batches[r.pos]
	r.pos++
	return b, nil
}
func (r *rawSource) Bounds() (int64, int64) { return 0, 0 }
func (r *rawSource) Close() error           { return nil }

func rawBatch(sec int64, arrivals ...int64) Batch {
	b := Batch{Second: sec}
	for _, a := range arrivals {
		b.Records = append(b.Records, dbsim.LogRecord{SQL: "SELECT 1", ArrivalMs: a, ResponseMs: float64(sec*1000 - a)})
	}
	return b
}

func drainReplay(t *testing.T, r *Replay) []Batch {
	t.Helper()
	var out []Batch
	for {
		b, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cloneBatch(b))
	}
}

func TestReplayRebaseAndDensify(t *testing.T) {
	// Trace starts at second 1000, with a 3-second gap after it.
	src := &rawSource{batches: []Batch{
		rawBatch(1000, 999500),
		rawBatch(1004, 1003800),
	}}
	out := drainReplay(t, NewReplay(src, 0))
	if len(out) != 5 {
		t.Fatalf("got %d batches, want 5 (dense 0..4)", len(out))
	}
	for i, b := range out {
		if b.Second != int64(i) {
			t.Fatalf("batch %d has Second %d", i, b.Second)
		}
	}
	// Second 1000 → 0: arrivals shift by 1000*1000 ms.
	if got := out[0].Records[0].ArrivalMs; got != 999500-1000_000 {
		t.Errorf("rebased arrival = %d, want %d", got, 999500-1000_000)
	}
	if !out[4].Last {
		t.Error("final batch not marked Last")
	}
	if out[1].Records != nil || out[2].Records != nil || out[3].Records != nil {
		t.Error("gap seconds must be empty")
	}
}

func TestReplayGapCompression(t *testing.T) {
	// A 100-second recording gap collapses to replayMaxGapSec empty seconds,
	// and the later batch's records shift by the dropped 95 seconds too.
	src := &rawSource{batches: []Batch{
		rawBatch(10, 9000),
		rawBatch(111, 110500),
	}}
	out := drainReplay(t, NewReplay(src, 0))
	if len(out) != 7 {
		t.Fatalf("got %d batches, want 7 (sec 0, five gap seconds, sec 6)", len(out))
	}
	last := out[6]
	if last.Second != 6 {
		t.Fatalf("compressed batch Second = %d, want 6", last.Second)
	}
	// Trace second 111 lands on replay second 6 → shift = 105 seconds.
	if got := last.Records[0].ArrivalMs; got != 110500-105_000 {
		t.Errorf("arrival after gap = %d, want %d", got, 110500-105_000)
	}
}

func TestReplaySlackReorder(t *testing.T) {
	// Seconds arrive 5,3,4: within the 5s slack they come out sorted.
	src := &rawSource{batches: []Batch{
		rawBatch(5, 4500),
		rawBatch(3, 2500),
		rawBatch(4, 3500),
	}}
	out := drainReplay(t, NewReplay(src, 0))
	if len(out) != 3 {
		t.Fatalf("got %d batches, want 3", len(out))
	}
	for i, b := range out {
		if b.Second != int64(i) {
			t.Fatalf("batch %d has Second %d, want sorted dense", i, b.Second)
		}
		if len(b.Records) != 1 {
			t.Fatalf("batch %d has %d records", i, len(b.Records))
		}
	}
}

func TestReplayBeyondSlackClamps(t *testing.T) {
	// A batch arriving > replaySlackSec behind is clamped forward, not dropped.
	src := &rawSource{batches: []Batch{
		rawBatch(100, 99500),
		rawBatch(110, 109500), // flushes second 100 (slack 5)
		rawBatch(99, 98500),   // older than anything still open
		rawBatch(120, 119500),
	}}
	out := drainReplay(t, NewReplay(src, 0))
	var total int
	for _, b := range out {
		total += len(b.Records)
	}
	if total != 4 {
		t.Fatalf("replay lost records: %d of 4 came through", total)
	}
}

func TestReplaySameSecondMerge(t *testing.T) {
	src := &rawSource{batches: []Batch{
		rawBatch(7, 6100),
		rawBatch(7, 6200),
		rawBatch(7, 6300),
	}}
	out := drainReplay(t, NewReplay(src, 0))
	if len(out) != 1 {
		t.Fatalf("got %d batches, want 1 merged", len(out))
	}
	if len(out[0].Records) != 3 {
		t.Fatalf("merged batch has %d records, want 3", len(out[0].Records))
	}
	for i := 1; i < 3; i++ {
		if out[0].Records[i].ArrivalMs < out[0].Records[i-1].ArrivalMs {
			t.Error("within-second order not preserved by merge")
		}
	}
}
