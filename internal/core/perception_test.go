package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pinsql/internal/anomaly"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// metricFrame builds a frame of n seconds carrying only the three detection
// metrics, each a small sawtooth about its own level; edit adjusts them.
func metricFrame(n int, edit func(i int, session, cpu, iops *float64)) *window.Frame {
	fr := &window.Frame{
		Seconds:       n,
		ActiveSession: make(timeseries.Series, n),
		CPUUsage:      make(timeseries.Series, n),
		IOPSUsage:     make(timeseries.Series, n),
	}
	for i := 0; i < n; i++ {
		session, cpu, iops := 10+float64(i%3), 20+float64(i%4), 30+float64(i%5)
		if edit != nil {
			edit(i, &session, &cpu, &iops)
		}
		fr.ActiveSession[i], fr.CPUUsage[i], fr.IOPSUsage[i] = session, cpu, iops
	}
	return fr
}

func spikeFrame() *window.Frame {
	return metricFrame(300, func(i int, session, _, _ *float64) {
		if i >= 100 && i < 120 {
			*session += 200
		}
	})
}

func phenomenaString(ps []anomaly.Phenomenon) string {
	var b strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&b, "%s[%d,%d)x%d ", p.Rule, p.Start, p.End, len(p.Events))
	}
	return strings.TrimSpace(b.String())
}

// TestPerception holds the perception front to the phenomena the fleet's
// reports were built from — the expected lists were printed at the commit
// whose Perception fed a rolling-state detector sample by sample — and to
// anomaly.Detector run directly on the same series.
func TestPerception(t *testing.T) {
	frames := []struct {
		name string
		fr   *window.Frame
		want string
	}{
		{"spike", spikeFrame(), "active_session_anomaly[90,120)x2"},
		{"level shift", metricFrame(300, func(i int, _, cpu, _ *float64) {
			if i >= 150 {
				*cpu += 50
			}
		}), "cpu_usage_anomaly[150,300)x1"},
		{"spike and shift on different metrics", metricFrame(300, func(i int, session, _, iops *float64) {
			if i >= 40 && i < 52 {
				*session += 90
			}
			if i >= 200 {
				*iops += 400
			}
		}), "active_session_anomaly[40,52)x1 iops_usage_anomaly[200,300)x2"},
		{"flat", metricFrame(300, func(_ int, session, cpu, iops *float64) {
			*session, *cpu, *iops = 5, 20, 30
		}), ""},
		{"shorter than 2·ShiftWindow", metricFrame(40, func(i int, session, cpu, _ *float64) {
			if i >= 10 && i < 20 {
				*session += 200
			}
			if i >= 20 {
				*cpu += 50 // a shift no window of 30 fits around
			}
		}), "active_session_anomaly[10,20)x1"},
	}
	det := anomaly.NewDetector(anomaly.Config{})
	for _, tc := range frames {
		per := NewPerception(anomaly.Config{}, nil)
		per.ObserveFrame(tc.fr)
		got := per.Phenomena()
		if s := phenomenaString(got); s != tc.want {
			t.Errorf("%s: phenomena = %q, want %q", tc.name, s, tc.want)
		}
		direct := det.DetectPhenomena(map[string]timeseries.Series{
			anomaly.MetricActiveSession: tc.fr.ActiveSession,
			anomaly.MetricCPUUsage:      tc.fr.CPUUsage,
			anomaly.MetricIOPSUsage:     tc.fr.IOPSUsage,
		}, anomaly.DefaultRules())
		if !reflect.DeepEqual(got, direct) {
			t.Errorf("%s: phenomena differ from the detector's\n got: %+v\nwant: %+v", tc.name, got, direct)
		}
		if again := per.Phenomena(); !reflect.DeepEqual(again, got) {
			t.Errorf("%s: a second Phenomena differs\n got: %+v\nwant: %+v", tc.name, again, got)
		}
	}

	// A Perception holds one frame: observing another replaces it.
	per := NewPerception(anomaly.Config{}, nil)
	per.ObserveFrame(frames[0].fr)
	per.ObserveFrame(frames[1].fr)
	if s := phenomenaString(per.Phenomena()); s != frames[1].want {
		t.Errorf("after a second ObserveFrame: phenomena = %q, want the second frame's %q", s, frames[1].want)
	}

	// The config and rules reach the detector.
	per = NewPerception(anomaly.Config{MinDurationSec: 60}, nil)
	per.ObserveFrame(frames[0].fr)
	if ps := per.Phenomena(); len(ps) != 0 {
		t.Errorf("MinDurationSec 60 kept a 30 s phenomenon: %+v", ps)
	}
	per = NewPerception(anomaly.Config{}, []anomaly.Rule{})
	per.ObserveFrame(frames[0].fr)
	if ps := per.Phenomena(); len(ps) != 0 {
		t.Errorf("no rules, yet phenomena: %+v", ps)
	}
}

// TestPerceptionAllocBudget: one detection of a 300 s window — three
// metrics, one spike — asks the allocator for at most 1.25 × what it takes
// (50,720 B in 54 objects, most of it sorted copies per metric; 66,855 B in
// 60 before the median of deviations sorted its own slice): state kept per
// sample, or a sorted copy more, fails here.
func TestPerceptionAllocBudget(t *testing.T) {
	fr := spikeFrame()
	detect := func() {
		per := NewPerception(anomaly.Config{}, nil)
		per.ObserveFrame(fr)
		if len(per.Phenomena()) != 1 {
			t.Fatal("fixture drifted: the spike was not recognized")
		}
	}
	detect() // warm-up
	const budgetObjects, budgetBytes = 67, 63_400
	if allocs := testing.AllocsPerRun(10, detect); allocs > budgetObjects {
		t.Errorf("one detection allocates %.0f objects, budget %d", allocs, budgetObjects)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	detect()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budgetBytes {
		t.Errorf("one detection allocates %d bytes, budget %d", got, budgetBytes)
	}
}
