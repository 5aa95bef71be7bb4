package collect

// Tests for the two collect-layer pieces the ingest seam rides on: the
// broker's lossless blocking sink and the keyed metric-ingestion path.

import (
	"sync"
	"testing"

	"pinsql/internal/dbsim"
)

// TestBrokerBlockingSinkLossless pushes far more records through a tiny
// buffer than it can hold: with a draining consumer every record must
// arrive, in order, with zero drops — the property trace replay (which
// pumps windows much faster than real time) depends on.
func TestBrokerBlockingSinkLossless(t *testing.T) {
	const total = 100_000
	b := NewBroker()
	defer b.Close()
	ch, cancel := b.Subscribe("t", 8)

	var got []int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rec := range ch {
			got = append(got, rec.ArrivalMs)
		}
	}()

	sink := b.BlockingSink("t")
	for i := 0; i < total; i++ {
		sink(dbsim.LogRecord{ArrivalMs: int64(i)})
	}
	cancel()
	wg.Wait()

	if len(got) != total {
		t.Fatalf("delivered %d records, want %d", len(got), total)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("record %d out of order: %d", i, v)
		}
	}
}

// TestPublishBlockingAllocatesNothing: with up to four subscribers the
// subscriber snapshot of a lossless publish lives on the stack.
func TestPublishBlockingAllocatesNothing(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	for i := 0; i < 4; i++ {
		b.Subscribe("t", 256) // buffers hold every record published below
	}
	rec := dbsim.LogRecord{TemplateID: "t", ArrivalMs: 1}
	if allocs := testing.AllocsPerRun(200, func() { b.PublishBlocking("t", rec) }); allocs != 0 {
		t.Fatalf("PublishBlocking allocates %.1f objects per record, want 0", allocs)
	}
}

// TestBrokerBlockingSinkCancelledSubscription checks the escape hatch: a
// blocking publish to a topic whose only subscription was cancelled (and
// is no longer draining) must not deadlock.
func TestBrokerBlockingSinkCancelledSubscription(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	_, cancel := b.Subscribe("t", 1)
	cancel()
	b.PublishBlocking("t", dbsim.LogRecord{}) // must return, not block
}

// TestIngestMetricsAtSparse is the satellite regression test for real
// samplers: gaps stay zero, duplicated seconds last-win, out-of-range
// rows are dropped — and nothing shifts.
func TestIngestMetricsAtSparse(t *testing.T) {
	c := NewCollector("t", 0, 5000, nil, nil)
	c.IngestMetricsAt([]dbsim.SecondMetrics{
		{Second: 1, ActiveSession: 10, QPS: 100},
		{Second: 4, ActiveSession: 30},
		{Second: 4, ActiveSession: 44}, // duplicate: last wins
		{Second: -1, ActiveSession: 99},
		{Second: 5, ActiveSession: 99}, // past the window: dropped
	})
	// Late keyed rows may fill an earlier gap.
	c.IngestMetricsAt([]dbsim.SecondMetrics{{Second: 2, ActiveSession: 20}})
	f := c.Frame()
	want := []float64{0, 10, 20, 0, 44}
	for i, w := range want {
		if f.ActiveSession[i] != w {
			t.Fatalf("ActiveSession[%d] = %v, want %v (series %v)", i, f.ActiveSession[i], w, f.ActiveSession)
		}
	}
	if f.QPS[1] != 100 {
		t.Fatalf("QPS[1] = %v, want 100", f.QPS[1])
	}
}
