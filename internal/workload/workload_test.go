package workload

import (
	"math"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/timeseries"
)

// runWorld simulates the world over [0, endMs) and returns the metrics and
// per-template per-second execution counts derived from the log.
func runWorld(t *testing.T, w *World, endMs int64) ([]dbsim.SecondMetrics, map[string]timeseries.Series) {
	t.Helper()
	cfg := dbsim.DefaultConfig()
	in := dbsim.NewInstance(cfg)
	w.Apply(in)

	seconds := int(endMs / 1000)
	counts := make(map[string]timeseries.Series)
	secs, err := in.Run(dbsim.RunOptions{
		StartMs: 0,
		EndMs:   endMs,
		Source:  w.Source(0, endMs, 99),
		Sink: func(r dbsim.LogRecord) {
			s, ok := counts[r.TemplateID]
			if !ok {
				s = make(timeseries.Series, seconds)
				counts[r.TemplateID] = s
			}
			sec := int(r.ArrivalMs / 1000)
			if sec >= 0 && sec < seconds {
				s[sec]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return secs, counts
}

func TestSourceOrderedAndInWindow(t *testing.T) {
	w := DefaultWorld(7)
	src := w.Source(10_000, 40_000, 3)
	prev := int64(0)
	n := 0
	for src.Peek() != math.MaxInt64 {
		q := src.Pop()
		if q.ArrivalMs < prev {
			t.Fatalf("arrivals out of order: %d after %d", q.ArrivalMs, prev)
		}
		if q.ArrivalMs < 10_000 || q.ArrivalMs >= 40_000 {
			t.Fatalf("arrival %d outside window", q.ArrivalMs)
		}
		prev = q.ArrivalMs
		n++
	}
	// ~30 s of ~100 QPS aggregate traffic.
	if n < 1000 || n > 10_000 {
		t.Errorf("arrivals = %d, want a plausible volume", n)
	}
}

func TestArrivalRatesMatchSpecs(t *testing.T) {
	w := DefaultWorld(1)
	counts := w.CountArrivals(0, 600_000, 5)
	// storefront item-by-id: 12 RPS × 3 calls = 36 QPS on average.
	spec := w.Services[0].Specs[0]
	got := counts[spec.ID()].Sum()
	want := 36.0 * 600
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("item-by-id count = %v, want ≈ %v", got, want)
	}
}

func TestIntraServiceCorrelationExceedsTau(t *testing.T) {
	w := DefaultWorld(2)
	counts := w.CountArrivals(0, 2_400_000, 6)
	sf := w.Services[0] // storefront
	a := counts[sf.Specs[0].ID()].DownsampleInto(nil, 60)
	b := counts[sf.Specs[1].ID()].DownsampleInto(nil, 60)
	corrAB, _ := timeseries.Corr(a, b)
	if corrAB <= 0.8 {
		t.Errorf("same-service corr = %v, want > 0.8", corrAB)
	}
	// Cross-service correlation must stay below the clustering threshold.
	other := counts[w.Services[3].Specs[0].ID()].DownsampleInto(nil, 60) // analytics log-scan
	corrAX, _ := timeseries.Corr(a, other)
	if corrAX > 0.8 {
		t.Errorf("cross-service corr = %v, want ≤ 0.8", corrAX)
	}
}

func TestBaselineLeavesHeadroom(t *testing.T) {
	w := DefaultWorld(3)
	secs, _ := runWorld(t, w, 120_000)
	var cpu, sess float64
	for _, s := range secs {
		cpu += s.CPUUsage
		sess += s.AvgActiveSession
	}
	cpu /= float64(len(secs))
	sess /= float64(len(secs))
	if cpu > 40 {
		t.Errorf("baseline CPU = %.1f%%, want light load", cpu)
	}
	if sess < 0.2 || sess > 10 {
		t.Errorf("baseline sessions = %.2f, want a few", sess)
	}
}

func TestBusinessSpikeInjection(t *testing.T) {
	w := DefaultWorld(4)
	anom := w.InjectBusinessSpike(w.Services[2], 50, 60_000, 120_000)
	if anom.Kind != KindBusinessSpike || len(anom.RSQLs) == 0 {
		t.Fatalf("anomaly = %+v", anom)
	}
	secs, counts := runWorld(t, w, 180_000)

	// Execution counts of the spiked service jump inside the window.
	spec := w.Services[2].Specs[0]
	s := counts[string(spec.ID())]
	base := s.Slice(0, 60).Mean()
	spike := s.Slice(60, 120).Mean()
	if spike < base*20 {
		t.Errorf("spiked exec: base %.1f → %.1f, want ≥ 20×", base, spike)
	}

	// The instance active session rises visibly during the window.
	var baseSess, spikeSess float64
	for i := 0; i < 60; i++ {
		baseSess += secs[i].AvgActiveSession
	}
	for i := 60; i < 120; i++ {
		spikeSess += secs[i].AvgActiveSession
	}
	baseSess /= 60
	spikeSess /= 60
	if spikeSess < baseSess+3 {
		t.Errorf("session lift %.2f → %.2f too weak for detection", baseSess, spikeSess)
	}
}

func TestPoorSQLInjection(t *testing.T) {
	w := DefaultWorld(5)
	anom := w.InjectPoorSQL(w.Services[4], "orders", 30, 60_000)
	secs, counts := runWorld(t, w, 180_000)

	s := counts[string(anom.RSQLs[0])]
	if s == nil || s.Slice(0, 60).Sum() != 0 {
		t.Fatalf("poor SQL should not execute before deployment: %v", s)
	}
	if s.Slice(60, 180).Sum() < 100 {
		t.Errorf("poor SQL executions = %v, want plenty", s.Slice(60, 180).Sum())
	}

	var baseCPU, postCPU, baseSess, postSess float64
	for i := 0; i < 60; i++ {
		baseCPU += secs[i].CPUUsage
		baseSess += secs[i].AvgActiveSession
	}
	for i := 90; i < 180; i++ {
		postCPU += secs[i].CPUUsage
		postSess += secs[i].AvgActiveSession
	}
	baseCPU /= 60
	postCPU /= 90
	baseSess /= 60
	postSess /= 90
	if postCPU < baseCPU+30 {
		t.Errorf("CPU %.1f%% → %.1f%%, want a CPU bottleneck", baseCPU, postCPU)
	}
	if postSess < baseSess+5 {
		t.Errorf("sessions %.2f → %.2f, want a pile-up", baseSess, postSess)
	}
}

func TestLockStormInjection(t *testing.T) {
	w := DefaultWorld(6)
	anom := w.InjectLockStorm(w.Services[2], "orders", 25, 60_000, 120_000)
	secs, counts := runWorld(t, w, 180_000)

	s := counts[string(anom.RSQLs[0])]
	if s == nil {
		t.Fatal("storm UPDATE never executed")
	}
	if got := s.Slice(0, 55).Sum(); got != 0 {
		t.Errorf("storm UPDATE executed before window: %v", got)
	}

	var baseWaits, stormWaits int
	var baseSess, stormSess float64
	for i := 0; i < 60; i++ {
		baseWaits += secs[i].RowLockWaits
		baseSess += secs[i].AvgActiveSession
	}
	for i := 60; i < 120; i++ {
		stormWaits += secs[i].RowLockWaits
		stormSess += secs[i].AvgActiveSession
	}
	baseSess /= 60
	stormSess /= 60
	if stormWaits < baseWaits+100 {
		t.Errorf("row lock waits %d → %d, want a storm", baseWaits, stormWaits)
	}
	if stormSess < baseSess+3 {
		t.Errorf("sessions %.2f → %.2f, want lock pile-up", baseSess, stormSess)
	}
}

func TestMDLInjection(t *testing.T) {
	w := DefaultWorld(7)
	anom := w.InjectMDL("orders", 60_000, 45_000)
	secs, counts := runWorld(t, w, 180_000)

	if got := counts[string(anom.RSQLs[0])]; got == nil || got.Sum() != 1 {
		t.Fatalf("DDL executions = %v, want exactly 1", got)
	}
	var freezeSess, baseSess float64
	var mdlWaits int
	for i := 0; i < 60; i++ {
		baseSess += secs[i].AvgActiveSession
	}
	for i := 60; i < 105; i++ {
		freezeSess += secs[i].AvgActiveSession
		mdlWaits += secs[i].MDLWaits
	}
	baseSess /= 60
	freezeSess /= 45
	if freezeSess < baseSess+20 {
		t.Errorf("sessions %.2f → %.2f, want a big MDL pile-up", baseSess, freezeSess)
	}
	if mdlWaits < 500 {
		t.Errorf("MDL waits = %d, want hundreds of frozen statements", mdlWaits)
	}
}

func TestFillerServicesScaleTemplateCount(t *testing.T) {
	w := DefaultWorld(8)
	base := len(w.AllSpecs())
	w.AddFillerServices(5, 20)
	if got := len(w.AllSpecs()); got != base+100 {
		t.Errorf("specs = %d, want %d", got, base+100)
	}
	counts := w.CountArrivals(0, 120_000, 9)
	// Filler templates actually produce traffic.
	filler := w.Services[len(w.Services)-1].Specs[0]
	if counts[filler.ID()].Sum() == 0 {
		t.Error("filler spec produced no arrivals")
	}
}

func TestSpecLifetimeBounds(t *testing.T) {
	w := NewWorld(1)
	w.AddTable("t", 1000)
	svc := w.AddService("svc", 10, 1)
	w.AddSpec(svc, Spec{
		Name: "windowed", Pattern: "SELECT x FROM t WHERE id = @",
		Table: "t", Kind: dbsim.KindSelect,
		CallsPerRequest: 2, ServiceMs: 1,
		ActiveFromMs: 30_000, ActiveUntilMs: 60_000,
	})
	counts := w.CountArrivals(0, 90_000, 2)
	s := counts[svc.Specs[0].ID()]
	if s.Slice(0, 30).Sum() != 0 || s.Slice(60, 90).Sum() != 0 {
		t.Errorf("spec active outside its lifetime: %v / %v", s.Slice(0, 30).Sum(), s.Slice(60, 90).Sum())
	}
	if s.Slice(30, 60).Sum() == 0 {
		t.Error("spec inactive inside its lifetime")
	}
}

func TestInstantiateReplacesPlaceholders(t *testing.T) {
	w := DefaultWorld(9)
	src := w.Source(0, 2_000, 1)
	q := src.Pop()
	for i := 0; i < len(q.SQL); i++ {
		if q.SQL[i] == '@' {
			t.Errorf("unreplaced placeholder in %q", q.SQL)
		}
	}
}

func TestAnomalyKindStrings(t *testing.T) {
	kinds := map[AnomalyKind]string{
		KindBusinessSpike: "business_spike",
		KindPoorSQL:       "poor_sql",
		KindLockStorm:     "lock_storm",
		KindMDL:           "mdl_lock",
		AnomalyKind(99):   "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d = %s, want %s", k, k.String(), want)
		}
	}
}
