package collect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/window"
)

// framesEqual compares two frames on every consumer-visible bit: metadata,
// template set with aggregate series (Float64bits), observation columns,
// offsets and the ByID permutation.
func framesEqual(a, b *window.Frame) error {
	if a.Topic != b.Topic || a.StartMs != b.StartMs || a.Seconds != b.Seconds {
		return fmt.Errorf("header mismatch: %v/%v/%v vs %v/%v/%v",
			a.Topic, a.StartMs, a.Seconds, b.Topic, b.StartMs, b.Seconds)
	}
	if len(a.Templates) != len(b.Templates) {
		return fmt.Errorf("template count %d vs %d", len(a.Templates), len(b.Templates))
	}
	seriesEqual := func(what string, x, y []float64) error {
		if len(x) != len(y) {
			return fmt.Errorf("%s length %d vs %d", what, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Errorf("%s[%d]: %v vs %v", what, i, x[i], y[i])
			}
		}
		return nil
	}
	for i := range a.Templates {
		ta, tb := &a.Templates[i], &b.Templates[i]
		if ta.Meta != tb.Meta {
			return fmt.Errorf("template %d meta %+v vs %+v", i, ta.Meta, tb.Meta)
		}
		for _, s := range []struct {
			what string
			x, y []float64
		}{
			{"Count", ta.Count, tb.Count},
			{"SumRT", ta.SumRT, tb.SumRT},
			{"SumRows", ta.SumRows, tb.SumRows},
			{"Throttled", ta.Throttled, tb.Throttled},
		} {
			if err := seriesEqual(fmt.Sprintf("template %d %s", i, s.what), s.x, s.y); err != nil {
				return err
			}
		}
	}
	if len(a.Off) != len(b.Off) {
		return fmt.Errorf("Off length %d vs %d", len(a.Off), len(b.Off))
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			return fmt.Errorf("Off[%d]: %d vs %d", i, a.Off[i], b.Off[i])
		}
	}
	if len(a.Arrival) != len(b.Arrival) {
		return fmt.Errorf("Arrival length %d vs %d", len(a.Arrival), len(b.Arrival))
	}
	for i := range a.Arrival {
		if a.Arrival[i] != b.Arrival[i] {
			return fmt.Errorf("Arrival[%d]: %d vs %d", i, a.Arrival[i], b.Arrival[i])
		}
	}
	if err := seriesEqual("Response", a.Response, b.Response); err != nil {
		return err
	}
	if len(a.ByID) != len(b.ByID) {
		return fmt.Errorf("ByID length %d vs %d", len(a.ByID), len(b.ByID))
	}
	for i := range a.ByID {
		if a.ByID[i] != b.ByID[i] {
			return fmt.Errorf("ByID[%d]: %d vs %d", i, a.ByID[i], b.ByID[i])
		}
	}
	for _, s := range []struct {
		what string
		x, y []float64
	}{
		{"ActiveSession", a.ActiveSession, b.ActiveSession},
		{"AvgSession", a.AvgSession, b.AvgSession},
		{"CPUUsage", a.CPUUsage, b.CPUUsage},
		{"IOPSUsage", a.IOPSUsage, b.IOPSUsage},
		{"MemUsage", a.MemUsage, b.MemUsage},
		{"QPS", a.QPS, b.QPS},
		{"RowLockWaits", a.RowLockWaits, b.RowLockWaits},
		{"MDLWaits", a.MDLWaits, b.MDLWaits},
	} {
		if err := seriesEqual(s.what, s.x, s.y); err != nil {
			return err
		}
	}
	return nil
}

// randomRecord draws an ingestible record: a bounded template universe (so
// templates repeat and interleave), arrivals across the whole window
// including out-of-order and tie cases, and occasional throttling.
func randomRecord(rng *rand.Rand, windowMs int64) dbsim.LogRecord {
	tpl := rng.Intn(24)
	r := rec(
		fmt.Sprintf("PT%02d", tpl),
		fmt.Sprintf("SELECT %d FROM prop", tpl),
		"prop",
		dbsim.KindSelect,
		rng.Int63n(windowMs),
		float64(rng.Intn(500))/4+1,
		int64(rng.Intn(1000)),
	)
	r.Throttled = rng.Intn(12) == 0
	return r
}

// TestIncrementalFramePropertyInterleaved is the interleaving property
// test: any sequence of Ingest and IngestMetricsAt calls — out-of-range
// seconds included — sealed once, yields a frame byte-identical to a
// from-scratch build of the same collector state, the empty window too.
func TestIncrementalFramePropertyInterleaved(t *testing.T) {
	const windowMs = 60_000
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector("prop", 0, windowMs, nil, nil)
		steps := 400
		if seed%4 == 0 {
			steps = 0
		}
		for step := 0; step < steps; step++ {
			if rng.Intn(10) == 0 {
				sec := int64(rng.Intn(70)) - 3
				c.IngestMetricsAt([]dbsim.SecondMetrics{{
					Second:        sec,
					ActiveSession: float64(rng.Intn(100)),
					IOPSUsage:     rng.Float64() * 100,
					RowLockWaits:  rng.Intn(20),
				}})
				continue
			}
			c.Ingest(randomRecord(rng, windowMs))
		}
		want := c.RebuildFrame()
		if err := framesEqual(c.Frame(), want); err != nil {
			t.Fatalf("seed %d: sealed frame diverges from rebuild: %v", seed, err)
		}
	}
}
