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
// test: any sequence of Ingest / IngestMetrics / IngestMetricsAt / Frame
// calls yields, at every seal point, a frame byte-identical to a
// from-scratch build of the same collector state.
func TestIncrementalFramePropertyInterleaved(t *testing.T) {
	const windowMs = 60_000
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCollector("prop", 0, windowMs, nil, nil)
		// Seal an empty frame sometimes, to cover the prev==nil and T==0
		// transitions.
		if seed%2 == 0 {
			if err := framesEqual(c.Frame(), c.RebuildFrame()); err != nil {
				t.Fatalf("seed %d: empty frame diverges: %v", seed, err)
			}
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0: // positional metric rows
				rows := make([]dbsim.SecondMetrics, rng.Intn(3)+1)
				for i := range rows {
					rows[i] = dbsim.SecondMetrics{
						ActiveSession: float64(rng.Intn(100)),
						CPUUsage:      rng.Float64() * 100,
						QPS:           rng.Intn(500),
					}
				}
				c.IngestMetrics(rows)
			case 1: // keyed metric rows, including out-of-range seconds
				sec := int64(rng.Intn(70)) - 3
				c.IngestMetricsAt([]dbsim.SecondMetrics{{
					Second:        sec,
					ActiveSession: float64(rng.Intn(100)),
					IOPSUsage:     rng.Float64() * 100,
					RowLockWaits:  rng.Intn(20),
				}})
			case 2, 3: // seal mid-stream
				got := c.Frame()
				want := c.RebuildFrame()
				if err := framesEqual(got, want); err != nil {
					t.Fatalf("seed %d step %d: incremental frame diverges from rebuild: %v", seed, step, err)
				}
				if again := c.Frame(); again != got {
					t.Fatalf("seed %d step %d: cached frame not reused", seed, step)
				}
			default:
				c.Ingest(randomRecord(rng, windowMs))
			}
		}
		if err := framesEqual(c.Frame(), c.RebuildFrame()); err != nil {
			t.Fatalf("seed %d: final frame diverges from rebuild: %v", seed, err)
		}
	}
}

// TestIncrementalFrameHeldFramesImmutable pins the copy-on-seal contract:
// a frame held across further ingestion and reseals keeps its exact
// contents.
func TestIncrementalFrameHeldFramesImmutable(t *testing.T) {
	const windowMs = 60_000
	rng := rand.New(rand.NewSource(42))
	c := NewCollector("held", 0, windowMs, nil, nil)
	for i := 0; i < 200; i++ {
		c.Ingest(randomRecord(rng, windowMs))
	}
	c.IngestMetrics([]dbsim.SecondMetrics{{ActiveSession: 5}, {ActiveSession: 7}})

	held := c.Frame()
	reference := c.RebuildFrame() // independent deep copy of the same state

	for i := 0; i < 300; i++ {
		c.Ingest(randomRecord(rng, windowMs))
		if i%50 == 0 {
			c.IngestMetricsAt([]dbsim.SecondMetrics{{Second: int64(i % 60), ActiveSession: float64(i)}})
			c.Frame() // reseal while held is still alive
		}
	}
	c.Frame()

	if err := framesEqual(held, reference); err != nil {
		t.Fatalf("held frame mutated by later ingestion: %v", err)
	}
}

// TestIncrementalFrameAllocBudget is the warm-close budget in objects: a
// window of W seconds and many templates is sealed once, then each
// {ingest K records → Frame} cycle must allocate O(K) objects — a fixed
// number of frame-level allocations plus a bounded number per touched
// template — independent of the window's size in records, templates or
// seconds. (In bytes a close that a record preceded is O(window): it
// arranges and scatters the window log again.)
func TestIncrementalFrameAllocBudget(t *testing.T) {
	const windowMs = 120_000
	rng := rand.New(rand.NewSource(9))
	c := NewCollector("budget", 0, windowMs, nil, nil)
	// A sizeable warm window: if warm closes were O(window), the budget
	// below would be exceeded by orders of magnitude.
	for i := 0; i < 8_000; i++ {
		r := randomRecord(rng, windowMs)
		r.Throttled = false
		c.Ingest(r)
	}
	rows := make([]dbsim.SecondMetrics, 120)
	for i := range rows {
		rows[i] = dbsim.SecondMetrics{ActiveSession: float64(i % 17)}
	}
	c.IngestMetrics(rows)
	c.Frame()

	// Pre-generate the deltas so the measured closure ingests and seals
	// without test-side formatting allocations.
	const K = 4
	deltas := make([]dbsim.LogRecord, (40+1)*K)
	for i := range deltas {
		deltas[i] = randomRecord(rng, windowMs)
		deltas[i].Throttled = false
	}
	next := 0
	allocs := testing.AllocsPerRun(40, func() {
		for j := 0; j < K; j++ {
			c.Ingest(deltas[next%len(deltas)])
			next++
		}
		c.Frame()
	})

	// Per cycle: the frame struct, Templates, Off, Arrival, Response, the
	// arranged form (one array, its per-second offsets, its runs) and the
	// scatter's cursor table stay O(1) in allocation count; each of the ≤K
	// touched templates copy-on-seal-clones 4 series; the window log's
	// chunks amortize. The bound is generous against noise but far below
	// any O(window) behaviour (rebuilding this window costs hundreds of
	// allocations per close in template clones alone).
	budget := float64(16 + K*(4+6+2))
	if allocs > budget {
		t.Fatalf("warm incremental close allocates %.1f allocs per %d-record cycle, budget %.0f", allocs, K, budget)
	}
}
