package collect

import (
	"sync"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

func rec(tpl, sql, table string, kind dbsim.QueryKind, arrival int64, rt float64, rows int64) dbsim.LogRecord {
	return dbsim.LogRecord{
		TemplateID:   tpl,
		SQL:          sql,
		Table:        table,
		Kind:         kind,
		ArrivalMs:    arrival,
		ResponseMs:   rt,
		ExaminedRows: rows,
	}
}

func TestRegistryInternDedupes(t *testing.T) {
	r := NewRegistry()
	a := r.Intern(rec("T1", "SELECT 1", "t", dbsim.KindSelect, 0, 1, 1))
	b := r.Intern(rec("T1", "SELECT 1", "t", dbsim.KindSelect, 5, 1, 1))
	if a.Index != b.Index {
		t.Errorf("same template interned twice: %d vs %d", a.Index, b.Index)
	}
	c := r.Intern(rec("T2", "SELECT 2", "t", dbsim.KindSelect, 0, 1, 1))
	if c.Index == a.Index {
		t.Error("distinct templates share an index")
	}
	if r.Len() != 2 {
		t.Errorf("registry len = %d, want 2", r.Len())
	}
	got, ok := r.Lookup(sqltemplate.ID("T1"))
	if !ok || got.Index != a.Index {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Error("Lookup of missing ID succeeded")
	}
	if r.At(a.Index).ID != a.ID {
		t.Error("At returned wrong entry")
	}
}

func TestRegistryDigestsWhenNoTemplateID(t *testing.T) {
	r := NewRegistry()
	a := r.Intern(rec("", "SELECT * FROM t WHERE id = 5", "t", dbsim.KindSelect, 0, 1, 1))
	b := r.Intern(rec("", "SELECT * FROM t WHERE id = 99", "t", dbsim.KindSelect, 0, 1, 1))
	if a.Index != b.Index {
		t.Error("literal-differing statements should share a template")
	}
	if a.Text != "SELECT * FROM t WHERE id = ?" {
		t.Errorf("normalized text = %q", a.Text)
	}
}

func TestRegistryConcurrentIntern(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tpl := string(rune('A' + i%10))
				r.Intern(rec(tpl, "SELECT "+tpl, "t", dbsim.KindSelect, 0, 1, 1))
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 10 {
		t.Errorf("registry len = %d, want 10", r.Len())
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector("db1", 0, 3000, nil, nil)
	c.Ingest(rec("A", "SELECT a", "t", dbsim.KindSelect, 100, 10, 5))
	c.Ingest(rec("A", "SELECT a", "t", dbsim.KindSelect, 900, 20, 7))
	c.Ingest(rec("A", "SELECT a", "t", dbsim.KindSelect, 1100, 30, 9))
	c.Ingest(rec("B", "SELECT b", "t", dbsim.KindSelect, 2500, 40, 11))

	f := c.Frame()
	if len(f.Templates) != 2 {
		t.Fatalf("templates = %d, want 2", len(f.Templates))
	}
	a := f.Template("A")
	if a == nil {
		t.Fatal("template A missing")
	}
	if a.Count[0] != 2 || a.Count[1] != 1 || a.Count[2] != 0 {
		t.Errorf("A count = %v", a.Count)
	}
	if a.SumRT[0] != 30 || a.SumRT[1] != 30 {
		t.Errorf("A sumRT = %v", a.SumRT)
	}
	if a.SumRows[0] != 12 || a.SumRows[1] != 9 {
		t.Errorf("A sumRows = %v", a.SumRows)
	}
	if got := a.MeanRT(); got != 20 {
		t.Errorf("A meanRT = %v, want 20", got)
	}
	if got := a.MeanRows(); got != 7 {
		t.Errorf("A meanRows = %v, want 7", got)
	}
	b := f.Template("B")
	if b.Count[2] != 1 {
		t.Errorf("B count = %v", b.Count)
	}
	if f.Template("missing") != nil {
		t.Error("missing template lookup should be nil")
	}
}

func TestCollectorIgnoresOutOfWindow(t *testing.T) {
	c := NewCollector("db1", 1000, 2000, nil, nil)
	c.Ingest(rec("A", "q", "t", dbsim.KindSelect, 500, 1, 1))  // before
	c.Ingest(rec("A", "q", "t", dbsim.KindSelect, 2500, 1, 1)) // after
	c.Ingest(rec("A", "q", "t", dbsim.KindSelect, 1500, 1, 1)) // inside
	if got := c.Frame().Template("A").Count.Sum(); got != 1 {
		t.Errorf("in-window count = %v, want 1", got)
	}
}

func TestCollectorThrottledSeparated(t *testing.T) {
	c := NewCollector("db1", 0, 1000, nil, nil)
	r := rec("A", "q", "t", dbsim.KindSelect, 100, 1, 5)
	r.Throttled = true
	c.Ingest(r)
	c.Ingest(rec("A", "q", "t", dbsim.KindSelect, 200, 1, 5))
	a := c.Frame().Template("A")
	if a.Count.Sum() != 1 || a.Throttled.Sum() != 1 {
		t.Errorf("count = %v, throttled = %v", a.Count.Sum(), a.Throttled.Sum())
	}
	// Throttled statements never executed: no rows examined.
	if a.SumRows.Sum() != 5 {
		t.Errorf("sumRows = %v, want 5 (executed only)", a.SumRows.Sum())
	}
}

func TestCollectorMetricsIngest(t *testing.T) {
	c := NewCollector("db1", 0, 2000, nil, nil)
	c.IngestMetricsAt([]dbsim.SecondMetrics{
		{Second: 0, ActiveSession: 3, CPUUsage: 50, QPS: 100},
		{Second: 1, ActiveSession: 7, CPUUsage: 80, QPS: 200},
	})
	f := c.Frame()
	if f.ActiveSession[0] != 3 || f.ActiveSession[1] != 7 {
		t.Errorf("active session = %v", f.ActiveSession)
	}
	if f.CPUUsage[1] != 80 || f.QPS[0] != 100 {
		t.Errorf("cpu = %v qps = %v", f.CPUUsage, f.QPS)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	c := NewCollector("db1", 0, 1000, nil, nil)
	for _, tpl := range []string{"C", "A", "B"} {
		c.Ingest(rec(tpl, "q"+tpl, "t", dbsim.KindSelect, 10, 1, 1))
	}
	f := c.Frame()
	for i := 1; i < len(f.Templates); i++ {
		if f.Templates[i-1].Meta.Index > f.Templates[i].Meta.Index {
			t.Fatal("templates not sorted by index")
		}
	}
}

func TestBrokerFanOut(t *testing.T) {
	b := NewBroker()
	ch1, cancel1 := b.Subscribe("db1", 10)
	ch2, cancel2 := b.Subscribe("db1", 10)
	defer cancel2()
	chOther, cancelOther := b.Subscribe("db2", 10)
	defer cancelOther()

	b.Publish("db1", rec("A", "q", "t", dbsim.KindSelect, 1, 1, 1))
	if got := <-ch1; got.TemplateID != "A" {
		t.Errorf("sub1 got %+v", got)
	}
	if got := <-ch2; got.TemplateID != "A" {
		t.Errorf("sub2 got %+v", got)
	}
	select {
	case r := <-chOther:
		t.Errorf("db2 subscriber received %+v", r)
	default:
	}

	cancel1()
	// Publishing after cancel must not panic and ch1 must be closed.
	b.Publish("db1", rec("B", "q", "t", dbsim.KindSelect, 2, 1, 1))
	if _, open := <-ch1; open {
		// Drain the pre-close record if any, then expect closed.
		if _, open := <-ch1; open {
			t.Error("cancelled subscription still open")
		}
	}
}

func TestBrokerDropsOnFullBuffer(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe("t", 1)
	defer cancel()
	b.Publish("t", rec("A", "q", "t", dbsim.KindSelect, 1, 1, 1))
	b.Publish("t", rec("B", "q", "t", dbsim.KindSelect, 2, 1, 1)) // dropped
	got := <-ch
	if got.TemplateID != "A" {
		t.Errorf("got %+v", got)
	}
	select {
	case r := <-ch:
		t.Errorf("unexpected second record %+v", r)
	default:
	}
}

func TestBrokerClose(t *testing.T) {
	b := NewBroker()
	ch, cancel := b.Subscribe("t", 1)
	b.Close()
	if _, open := <-ch; open {
		t.Error("channel open after Close")
	}
	b.Publish("t", dbsim.LogRecord{}) // must not panic
	b.Close()                         // idempotent
	cancel()                          // safe after Close... must not double-close
}

func TestStreamAggregatorEndToEnd(t *testing.T) {
	b := NewBroker()
	c := NewCollector("db1", 0, 2000, nil, nil)
	ch, cancel := b.Subscribe("db1", 64)
	done := NewStreamAggregator(c).Consume(ch)

	sink := b.Sink("db1")
	for i := 0; i < 20; i++ {
		sink(rec("A", "q", "t", dbsim.KindSelect, int64(i*50), 2, 3))
	}
	cancel()
	<-done
	if got := c.Frame().Template("A").Count.Sum(); got != 20 {
		t.Errorf("aggregated count = %v, want 20", got)
	}
}
