package bench

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/dbsim"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// IncrementalSpeedupFloor is the committed performance floor of the
// per-tick incremental frame close: RunDiagnoseBench reports BelowFloor
// (and cmd/pinsql-bench exits non-zero on it) if the incremental path
// delivers less than this many times the rebuild path's windows/sec.
// The rebuild pays O(window) clones and sorts every tick, the incremental
// close O(new records); still, a wall-clock ratio moves with machine load
// (4.13× was seen under a loaded `go test ./...`), so the library only
// reports it and nothing under `go test` evaluates it.
const IncrementalSpeedupFloor = 5.0

// IncrementalBench compares two ways of producing a sealed window frame
// (plus detection) on every per-second monitoring tick of a filling
// window:
//
//   - rebuild: from-scratch frame construction (collect.RebuildFrame —
//     clone every series, concatenate and re-sort every observation
//     group) followed by batch anomaly detection, i.e. the pre-
//     incremental per-tick cost;
//   - incremental: the delta frame build (Collector.Frame patches only
//     the dirty suffix against the previous sealed frame) followed by the
//     rolling-state streaming detector.
//
// Both paths run over the same collector state; every tick is first
// cross-checked — frames bit-identical, phenomena deeply equal — before
// the rates count.
type IncrementalBench struct {
	Seconds       int `json:"seconds"`         // window length ticked through
	RecordsPerSec int `json:"records_per_sec"` // ingest rate per tick
	Templates     int `json:"templates"`       // template universe size

	// Frame close: ingest-and-seal against from-scratch rebuild. The
	// headline Speedup is floor-gated by the command, not the library:
	// BelowFloor reports Speedup < SpeedupFloor.
	RebuildWindowsPerSec     float64 `json:"rebuild_windows_per_sec"`
	IncrementalWindowsPerSec float64 `json:"incremental_windows_per_sec"`
	Speedup                  float64 `json:"speedup"`
	SpeedupFloor             float64 `json:"speedup_floor"`
	BelowFloor               bool    `json:"below_floor"`

	// Detection: rolling-state streaming detector against the batch
	// detector over the same per-tick prefixes (informational — the two
	// share the O(n) scan code, the rolling state only removes the
	// per-tick re-sorts behind the order statistics).
	BatchDetectsPerSec  float64 `json:"batch_detects_per_sec"`
	StreamDetectsPerSec float64 `json:"stream_detects_per_sec"`
	DetectSpeedup       float64 `json:"detect_speedup"`

	Identical bool `json:"identical"`
}

// incrementalRecord draws one synthetic record for the streaming-tick
// benchmark: a bounded template universe so groups repeat and stay dirty
// only when actually appended to.
func incrementalRecord(rng *rand.Rand, sec int, templates int) dbsim.LogRecord {
	tpl := rng.Intn(templates)
	return dbsim.LogRecord{
		TemplateID:   fmt.Sprintf("BT%03d", tpl),
		SQL:          fmt.Sprintf("SELECT %d FROM bench", tpl),
		Table:        "bench",
		Kind:         dbsim.KindSelect,
		ArrivalMs:    int64(sec)*1000 + int64(rng.Intn(1000)),
		ResponseMs:   float64(rng.Intn(400))/4 + 1,
		ExaminedRows: int64(rng.Intn(2000)),
	}
}

// sameFrameBits compares two frames on every consumer-visible bit.
func sameFrameBits(a, b *window.Frame) bool {
	if a.Topic != b.Topic || a.StartMs != b.StartMs || a.Seconds != b.Seconds ||
		len(a.Templates) != len(b.Templates) || len(a.Off) != len(b.Off) ||
		len(a.Arrival) != len(b.Arrival) || len(a.ByID) != len(b.ByID) {
		return false
	}
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i := range a.Templates {
		ta, tb := &a.Templates[i], &b.Templates[i]
		if ta.Meta != tb.Meta || !eq(ta.Count, tb.Count) || !eq(ta.SumRT, tb.SumRT) ||
			!eq(ta.SumRows, tb.SumRows) || !eq(ta.Throttled, tb.Throttled) {
			return false
		}
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			return false
		}
	}
	for i := range a.Arrival {
		if a.Arrival[i] != b.Arrival[i] {
			return false
		}
	}
	if !eq(a.Response, b.Response) {
		return false
	}
	for i := range a.ByID {
		if a.ByID[i] != b.ByID[i] {
			return false
		}
	}
	return eq(a.ActiveSession, b.ActiveSession) && eq(a.AvgSession, b.AvgSession) &&
		eq(a.CPUUsage, b.CPUUsage) && eq(a.IOPSUsage, b.IOPSUsage) &&
		eq(a.MemUsage, b.MemUsage) && eq(a.QPS, b.QPS) &&
		eq(a.RowLockWaits, b.RowLockWaits) && eq(a.MDLWaits, b.MDLWaits)
}

// runIncrementalBench ticks one window second by second: each tick
// ingests that second's records and metric row, closes the window frame
// both ways (incremental and rebuild), runs detection both ways
// (streaming and batch), verifies they agree, and accumulates each
// path's wall clock.
func runIncrementalBench(seed int64, small bool) (*IncrementalBench, error) {
	// The template universe is large relative to the per-tick arrival
	// rate, as in production (an instance carries hundreds of templates,
	// a second touches a few dozen): the rebuild clones every template's
	// series each close, the delta close only the touched ones.
	out := &IncrementalBench{
		Seconds:       300,
		RecordsPerSec: 40,
		Templates:     400,
		SpeedupFloor:  IncrementalSpeedupFloor,
		Identical:     true,
	}
	if small {
		out.Seconds = 120
		out.RecordsPerSec = 25
		out.Templates = 200
	}

	rng := rand.New(rand.NewSource(seed))
	coll := collect.NewCollector("bench-incremental", 0, int64(out.Seconds)*1000, nil, nil)
	stream := anomaly.NewStreamDetector(anomaly.Config{})
	batch := anomaly.NewDetector(anomaly.Config{})
	rules := anomaly.DefaultRules()
	prefixMetrics := func(fr *window.Frame, upto int) map[string]timeseries.Series {
		return map[string]timeseries.Series{
			anomaly.MetricActiveSession: fr.ActiveSession[:upto],
			anomaly.MetricCPUUsage:      fr.CPUUsage[:upto],
			anomaly.MetricIOPSUsage:     fr.IOPSUsage[:upto],
		}
	}

	var incCloseSec, rebCloseSec, incDetSec, rebDetSec float64
	recs := make([]dbsim.LogRecord, out.RecordsPerSec)
	for sec := 0; sec < out.Seconds; sec++ {
		for i := range recs {
			recs[i] = incrementalRecord(rng, sec, out.Templates)
		}
		m := dbsim.SecondMetrics{
			Second:        int64(sec),
			ActiveSession: 20 + 10*math.Sin(float64(sec)/17) + rng.Float64(),
			CPUUsage:      35 + rng.Float64()*5,
			IOPSUsage:     50 + rng.Float64()*8,
			QPS:           out.RecordsPerSec,
		}
		if sec == out.Seconds/2 { // one injected spike so detection has work
			m.ActiveSession += 400
			m.CPUUsage += 60
		}

		// Ingestion is shared state maintenance both paths pay
		// identically, so it stays outside both close timings; the two
		// timed ops build a sealed frame of the same post-ingest state.
		for _, r := range recs {
			coll.Ingest(r)
		}
		coll.IngestMetricsAt([]dbsim.SecondMetrics{m})

		// Incremental close: the delta build patches only the dirty
		// suffix against the previous sealed frame.
		start := time.Now()
		incFrame := coll.Frame()
		incCloseSec += time.Since(start).Seconds()

		// Streaming detection off the rolling state.
		start = time.Now()
		stream.Observe(anomaly.MetricActiveSession, incFrame.ActiveSession[sec])
		stream.Observe(anomaly.MetricCPUUsage, incFrame.CPUUsage[sec])
		stream.Observe(anomaly.MetricIOPSUsage, incFrame.IOPSUsage[sec])
		incPhen := stream.DetectPhenomena(rules)
		incDetSec += time.Since(start).Seconds()

		// Rebuild close over the same state: from-scratch frame (the
		// pre-incremental per-tick cost).
		start = time.Now()
		rebFrame := coll.RebuildFrame()
		rebCloseSec += time.Since(start).Seconds()

		// Batch detection over the same per-tick prefixes.
		start = time.Now()
		rebPhen := batch.DetectPhenomena(prefixMetrics(rebFrame, sec+1), rules)
		rebDetSec += time.Since(start).Seconds()

		// Cross-check, untimed.
		if !sameFrameBits(incFrame, rebFrame) {
			out.Identical = false
			return out, fmt.Errorf("bench: incremental frame diverges from rebuild at tick %d", sec)
		}
		if !reflect.DeepEqual(incPhen, rebPhen) {
			out.Identical = false
			return out, fmt.Errorf("bench: streaming phenomena diverge from batch at tick %d", sec)
		}
	}

	ticks := float64(out.Seconds)
	out.IncrementalWindowsPerSec = ticks / incCloseSec
	out.RebuildWindowsPerSec = ticks / rebCloseSec
	out.Speedup = rebCloseSec / incCloseSec
	out.StreamDetectsPerSec = ticks / incDetSec
	out.BatchDetectsPerSec = ticks / rebDetSec
	out.DetectSpeedup = rebDetSec / incDetSec
	out.BelowFloor = out.Speedup < out.SpeedupFloor
	return out, nil
}

// Format renders the incremental-close report.
func (b *IncrementalBench) Format() string {
	return fmt.Sprintf(
		"Incremental close: %d ticks × %d rec/s, %d templates\n"+
			"%-12s | %14s | %14s\n%-12s | %14.1f | %14.1f\n%-12s | %14.1f | %14.1f\n"+
			"close speedup %.1fx (floor %.0fx), detect speedup %.1fx, identical=%v\n",
		b.Seconds, b.RecordsPerSec, b.Templates,
		"path", "closes/sec", "detects/sec",
		"rebuild", b.RebuildWindowsPerSec, b.BatchDetectsPerSec,
		"incremental", b.IncrementalWindowsPerSec, b.StreamDetectsPerSec,
		b.Speedup, b.SpeedupFloor, b.DetectSpeedup, b.Identical)
}
