package core

import (
	"math"
	"reflect"
	"testing"

	"pinsql/internal/anomaly"
	"pinsql/internal/cases"
	"pinsql/internal/session"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
	"pinsql/internal/workload"
)

// estimateBits flattens a frame estimate into its float bit patterns: per
// template the series' length, then each nonzero second and its value.
func estimateBits(e *session.FrameEstimate) []uint64 {
	var out []uint64
	add := func(s timeseries.Series) {
		for _, v := range s {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, s := range e.PerTemplate {
		out = append(out, uint64(s.N))
		for _, sec := range s.Idx {
			out = append(out, uint64(sec))
		}
		add(s.Val)
	}
	add(e.Total)
	for _, b := range e.SelBucket {
		out = append(out, uint64(b))
	}
	return out
}

// stripTimes zeroes the wall-clock fields of a diagnosis, the only ones
// allowed to differ between two runs on the same input.
func stripTimes(d *Diagnosis) {
	d.Time = Timing{}
	d.Root.ClusterDur, d.Root.VerifyDur = 0, 0
}

// TestFrameDiagnoserSharesOneEstimate: the phenomena of one window share
// one session estimate. It is computed once, on the first Diagnose; no
// stage writes to it, so it is bit-identical before the first and after the
// last phenomenon; and each phenomenon's diagnosis — ranked lists, scores,
// the whole R-SQL module output — equals a standalone DiagnoseFrame call's,
// which estimates for itself.
func TestFrameDiagnoserSharesOneEstimate(t *testing.T) {
	opt := cases.DefaultOptions()
	opt.FillerServices = 2
	opt.FillerSpecs = 5
	lab, err := cases.GenerateOne(opt, 2, workload.KindLockStorm)
	if err != nil {
		t.Fatal(err)
	}
	fr := lab.Case.Frame
	// The detected case plus two more phenomena of the same window, over
	// other intervals: what the fleet sees when two rules fire, or one
	// rule twice.
	phenomena := []*anomaly.Case{lab.Case}
	for _, shift := range []int{-40, 25} {
		c := *lab.Case
		c.AS = max(c.AS+shift, 0)
		c.AE = min(c.AE+shift, fr.Seconds)
		phenomena = append(phenomena, &c)
	}

	for _, workers := range []int{1, 3} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		fd := NewFrameDiagnoser(fr, cfg)
		if fd.Estimates() != 0 {
			t.Fatal("an estimate was computed before the first Diagnose")
		}
		var first []uint64
		var shared *session.FrameEstimate
		for i, c := range phenomena {
			d := fd.Diagnose(c)
			if i == 0 {
				shared, first = d.FrameEst, estimateBits(d.FrameEst)
			} else if d.FrameEst != shared {
				t.Fatalf("workers=%d, phenomenon %d: a second estimate", workers, i)
			}
			alone := DiagnoseFrame(c, fr, cfg)
			if !reflect.DeepEqual(estimateBits(d.FrameEst), estimateBits(alone.FrameEst)) {
				t.Fatalf("workers=%d, phenomenon %d: shared estimate differs from a standalone one", workers, i)
			}
			stripTimes(d)
			stripTimes(alone)
			d.FrameEst, alone.FrameEst = nil, nil
			if !reflect.DeepEqual(d, alone) {
				t.Fatalf("workers=%d, phenomenon %d: shared-context diagnosis differs from DiagnoseFrame:\n%+v\n%+v", workers, i, d, alone)
			}
		}
		if fd.Estimates() != 1 {
			t.Fatalf("workers=%d: %d estimates for %d phenomena, want 1", workers, fd.Estimates(), len(phenomena))
		}
		if !reflect.DeepEqual(first, estimateBits(shared)) {
			t.Fatalf("workers=%d: the shared estimate changed between the first and the last phenomenon", workers)
		}
	}

	// The ablation estimates nothing, and says so.
	cfg := DefaultConfig()
	cfg.NoEstimateSession = true
	fd := NewFrameDiagnoser(fr, cfg)
	for _, c := range phenomena {
		d, alone := fd.Diagnose(c), DiagnoseFrame(c, fr, cfg)
		stripTimes(d)
		stripTimes(alone)
		if !reflect.DeepEqual(d, alone) {
			t.Fatal("NoEstimateSession: shared-context diagnosis differs from DiagnoseFrame")
		}
	}
	if fd.Estimates() != 0 {
		t.Fatalf("NoEstimateSession computed %d estimates", fd.Estimates())
	}
}

// TestFrameDiagnoserSharesOnePartition: the phenomena of one window share
// one τ-graph partition as they share one estimate. It is computed once, on
// the first Diagnose; the per-case steps order a copy of it, so the estimate
// and every later case's clusters are what they would be alone; and each
// phenomenon's diagnosis equals a standalone DiagnoseFrame call's, which
// partitions for itself — with and without metric nodes, which are part of
// what is partitioned.
func TestFrameDiagnoserSharesOnePartition(t *testing.T) {
	opt := cases.DefaultOptions()
	opt.FillerServices = 2
	opt.FillerSpecs = 5
	lab, err := cases.GenerateOne(opt, 3, workload.KindBusinessSpike)
	if err != nil {
		t.Fatal(err)
	}
	fr := lab.Case.Frame
	phenomena := []*anomaly.Case{lab.Case}
	for _, shift := range []int{-90, -30, 40} {
		c := *lab.Case
		c.AS = max(c.AS+shift, 0)
		c.AE = min(c.AE+shift, fr.Seconds)
		phenomena = append(phenomena, &c)
	}

	for _, metricNodes := range []bool{true, false} {
		for _, workers := range []int{1, 3} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			cfg.IncludeMetricTempNodes = metricNodes
			fd := NewFrameDiagnoser(fr, cfg)
			if fd.partition != nil {
				t.Fatal("a partition was computed before the first Diagnose")
			}
			var firstEst []uint64
			for i, c := range phenomena {
				d := fd.Diagnose(c)
				if fd.partition == nil {
					t.Fatalf("metricNodes=%v workers=%d: no partition after phenomenon %d", metricNodes, workers, i)
				}
				if i == 0 {
					firstEst = estimateBits(d.FrameEst)
				}
				alone := DiagnoseFrame(c, fr, cfg)
				stripTimes(d)
				stripTimes(alone)
				if !reflect.DeepEqual(estimateBits(d.FrameEst), estimateBits(alone.FrameEst)) {
					t.Fatalf("metricNodes=%v workers=%d, phenomenon %d: shared estimate differs from a standalone one", metricNodes, workers, i)
				}
				d.FrameEst, alone.FrameEst = nil, nil
				if !reflect.DeepEqual(d, alone) {
					t.Fatalf("metricNodes=%v workers=%d, phenomenon %d: shared-partition diagnosis differs from DiagnoseFrame:\n%+v\n%+v", metricNodes, workers, i, d.Root, alone.Root)
				}
			}
			if last := fd.Diagnose(phenomena[0]); !reflect.DeepEqual(firstEst, estimateBits(last.FrameEst)) {
				t.Fatalf("metricNodes=%v workers=%d: the shared estimate changed between the first and the last phenomenon", metricNodes, workers)
			}
		}
	}
}

// TestFrameDiagnoserRefusesAnotherFramesCase: a case is diagnosed only on
// the frame it was detected on. One from another frame — even an equal
// copy — panics instead of reading this frame's series over its interval.
func TestFrameDiagnoserRefusesAnotherFramesCase(t *testing.T) {
	c, f := syntheticCase(true)
	other, _ := syntheticCase(true)
	copied := *f
	for name, fr := range map[string]*window.Frame{"another frame": other.Frame, "a copy of the frame": &copied} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Diagnose of a case detected on %s did not panic", name)
				}
			}()
			NewFrameDiagnoser(fr, DefaultConfig()).Diagnose(c)
		}()
	}
	if d := NewFrameDiagnoser(f, DefaultConfig()).Diagnose(c); len(d.RSQLs) == 0 {
		t.Fatal("the case's own frame diagnosed nothing")
	}
}
