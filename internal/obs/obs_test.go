package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestPrometheusRendering locks the exact exposition text: family order,
// label order, HELP/TYPE lines, integer counters and float gauges.
func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("pinsql_windows_total", "Windows processed.", L("instance", "b")).Add(3)
	r.Counter("pinsql_windows_total", "Windows processed.", L("instance", "a")).Add(7)
	r.Gauge("pinsql_queue_depth", "Queued windows.", L("instance", "a")).Set(2.5)
	r.GaugeFunc("pinsql_cache_hits", "Raw-cache hits.", func() float64 { return 42 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP pinsql_cache_hits Raw-cache hits.
# TYPE pinsql_cache_hits gauge
pinsql_cache_hits 42
# HELP pinsql_queue_depth Queued windows.
# TYPE pinsql_queue_depth gauge
pinsql_queue_depth{instance="a"} 2.5
# HELP pinsql_windows_total Windows processed.
# TYPE pinsql_windows_total counter
pinsql_windows_total{instance="a"} 7
pinsql_windows_total{instance="b"} 3
`
	if b.String() != want {
		t.Fatalf("rendering mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestCounterIdentity checks repeated registration returns the same series.
func TestCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "", L("k", "v"))
	b := r.Counter("c_total", "", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	a.Inc()
	b.Add(2)
	a.Add(-5) // ignored: counters only go up
	if got := a.Value(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}
	g1 := r.Gauge("g", "")
	g2 := r.Gauge("g", "")
	if g1 != g2 {
		t.Fatal("same name+labels must return the same gauge")
	}
}

// TestLabelOrderCanonical checks label pairs render sorted by key
// regardless of registration order.
func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("z", "1"), L("a", "2"))
	b := r.Counter("x_total", "", L("a", "2"), L("z", "1"))
	if a != b {
		t.Fatal("label order must not distinguish series")
	}
	a.Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `x_total{a="2",z="1"} 1`) {
		t.Fatalf("labels not canonically ordered:\n%s", sb.String())
	}
}

// TestTypeConflictPanics checks that reusing a name with another type is a
// loud programming error.
func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge type conflict")
		}
	}()
	r.Gauge("m", "")
}

// TestConcurrentUse hammers registration and increments from many
// goroutines; run under -race this is the thread-safety proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("conc_total", "", L("w", string(rune('a'+i%4)))).Inc()
				r.Gauge("conc_depth", "").Set(float64(j))
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, lbl := range []string{"a", "b", "c", "d"} {
		total += r.Counter("conc_total", "", L("w", lbl)).Value()
	}
	if total != 8*200 {
		t.Fatalf("lost increments: %d != %d", total, 8*200)
	}
}
