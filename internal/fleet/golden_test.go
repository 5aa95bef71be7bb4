package fleet

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite the fleet fingerprint goldens")

// goldenCases are the fingerprint workloads: fixed-seed fleet
// configurations whose final reports are committed under testdata/ and must
// never change byte-for-byte across refactors of the collection/diagnosis
// path. TestFleetWorkersEquivalence proves a single build is internally
// deterministic; these goldens pin the output across builds, so a refactor
// of the ingestion seam (or anything upstream of the report) is provably a
// no-op for the simulator path.
func goldenCases() map[string]struct {
	specs []InstanceSpec
	opt   Options
} {
	return map[string]struct {
		specs []InstanceSpec
		opt   Options
	}{
		// The shared test fixture: 4 heterogeneous instances, one
		// auto-repairing (lockstep scheduling + executed actions).
		"fleet4": {specs: testSpecs(), opt: Options{Workers: 4, QueueDepth: 16}},
		// Single-instance pinsqld default shape.
		"single": {specs: []InstanceSpec{DefaultSpec("pinsqld", 42, 3, 300)}, opt: Options{Workers: 2, QueueDepth: 16}},
	}
}

func TestFleetGoldenFingerprint(t *testing.T) {
	for name, tc := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			rep, _ := runReport(t, tc.specs, tc.opt)
			path := filepath.Join("testdata", "golden_"+name+".txt")
			if *updateGoldens {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(rep), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-goldens): %v", err)
			}
			if rep != string(want) {
				t.Fatalf("report diverged from committed golden %s\n--- golden ---\n%s\n--- got ---\n%s", path, want, rep)
			}
		})
	}
}

// TestFleetGoldenKillRestart pins the durable path against the same golden:
// a fleet killed at a mid-run commit boundary and reopened must reproduce
// the fingerprint byte-for-byte.
func TestFleetGoldenKillRestart(t *testing.T) {
	tc := goldenCases()["fleet4"]
	dir := t.TempDir()
	opt := tc.opt
	opt.DataDir = dir
	opt.CrashAt = func(id string, window int, phase string) bool {
		return id == "inst-01" && window == 1 && phase == "pre-journal"
	}
	f, err := New(tc.specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	f.Wait()
	f.Close()

	opt2 := tc.opt
	opt2.DataDir = dir
	rep, _ := runReport(t, tc.specs, opt2)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_fleet4.txt"))
	if err != nil {
		t.Fatalf("missing golden (run with -update-goldens): %v", err)
	}
	if rep != string(want) {
		t.Fatalf("post-restart report diverged from committed golden\n--- golden ---\n%s\n--- got ---\n%s", want, rep)
	}
}

// TestOnlyDiagnosedWindowsSeal drives the single-instance golden window by
// window: detection reads the collector's live series, so a window without
// a phenomenon is never sealed — its collector still takes ingest after
// diagnose — and one with a phenomenon is, and the windows report their
// golden.
func TestOnlyDiagnosedWindowsSeal(t *testing.T) {
	tc := goldenCases()["single"]
	f, err := New(tc.specs, tc.opt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.insts[tc.specs[0].ID]
	var reps []*WindowReport
	quiet := 0
	for w := 0; w < st.spec.Windows; w++ {
		sw, _, err := f.simWindow(st, w)
		if err != nil {
			t.Fatal(err)
		}
		f.diagnose(sw)
		sealed := func() (sealed bool) {
			defer func() { sealed = recover() != nil }()
			sw.coll.IngestMetricsAt(nil)
			return false
		}()
		if sealed != (len(sw.rep.Anomalies) > 0) {
			t.Errorf("window %d: sealed=%v with %d phenomena", w, sealed, len(sw.rep.Anomalies))
		}
		if !sealed {
			quiet++
		}
		if err := f.commit(st, sw); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, sw.rep)
	}
	if quiet == 0 || quiet == len(reps) {
		t.Fatalf("fixture lost its teeth: %d of %d windows quiet", quiet, len(reps))
	}
	var b strings.Builder
	FormatInstanceReport(&b, st.spec.ID, reps)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_single.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Fatalf("windows diagnosed one by one diverged from the golden\n--- golden ---\n%s\n--- got ---\n%s", want, b.String())
	}
}
