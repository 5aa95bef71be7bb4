package bench

import (
	"strings"
	"testing"
)

func TestRunDiagnoseBenchSmall(t *testing.T) {
	res, err := RunDiagnoseBench(DiagnoseBenchOptions{Seed: 3, Small: true, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical {
		t.Fatal("frame and legacy diagnoses diverged")
	}
	if res.Cases != 4 || res.Rounds != 1 {
		t.Errorf("corpus shape = %d cases × %d rounds", res.Cases, res.Rounds)
	}
	if res.FrameWindowsPerSec <= 0 || res.LegacyWindowsPerSec <= 0 {
		t.Errorf("rates = %g / %g", res.LegacyWindowsPerSec, res.FrameWindowsPerSec)
	}
	// The alloc win is structural (no per-window map materialization), so
	// even a single noisy CI round must show a clear gap. No wall-clock
	// ratio is asserted here: the incremental-close floor is reported as
	// Incremental.BelowFloor and gated by cmd/pinsql-bench, not go test.
	if res.AllocRatio < 2 {
		t.Errorf("alloc ratio = %.1f, expected the frame path to allocate far less", res.AllocRatio)
	}
	if inc := res.Incremental; inc == nil || !inc.Identical || inc.Speedup <= 0 {
		t.Errorf("incremental close = %+v, want an identical, measured run", inc)
	}
	out := res.Format()
	for _, want := range []string{"windows/sec", "allocs/op", "identical=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}
