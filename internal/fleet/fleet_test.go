package fleet

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/workload"
)

// testSpecs is the shared fixture: four heterogeneous instances, the last
// one auto-repairing (lockstep scheduling, executed actions in the
// journal).
func testSpecs() []InstanceSpec {
	specs := DefaultFleet(4, 7, 3, 300)
	specs[3].AutoRepair = true
	return specs
}

func runReport(t *testing.T, specs []InstanceSpec, opt Options) (string, *Fleet) {
	t.Helper()
	f, err := New(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := f.Report()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, f
}

// TestFleetWorkersEquivalence is the determinism contract across
// scheduling: a fixed-seed fleet produces a byte-identical report for
// every worker count.
func TestFleetWorkersEquivalence(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 8} {
		rep, f := runReport(t, testSpecs(), Options{Workers: workers, QueueDepth: 16})
		st := f.Status()
		if st.Committed != 4*3 {
			t.Fatalf("workers=%d: committed %d windows, want 12", workers, st.Committed)
		}
		if st.Shed != 0 {
			t.Fatalf("workers=%d: %d windows shed with a deep queue", workers, st.Shed)
		}
		if st.Anomalies == 0 {
			t.Fatalf("workers=%d: no anomalies diagnosed — fixture lost its teeth", workers)
		}
		if want == "" {
			want = rep
			continue
		}
		if rep != want {
			t.Fatalf("workers=%d: report diverged\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s", workers, want, workers, rep)
		}
	}
	if !strings.Contains(want, "rsql") {
		t.Fatalf("no R-SQL diagnosed in:\n%s", want)
	}
	if !strings.Contains(want, "action") {
		t.Fatalf("no repairing action in:\n%s", want)
	}
}

// TestFleetCrashResume is the durability contract: kill the fleet at every
// commit phase of a mid-run window, reopen the data directory, and the
// finished fleet's report is byte-identical to an uninterrupted run's, and
// so is every stored record, its template resolved through the registry the
// resumed fleet restored from its journal.
func TestFleetCrashResume(t *testing.T) {
	specs := testSpecs()
	wantDir := t.TempDir()
	want, wantFleet := runReport(t, specs, Options{Workers: 4, QueueDepth: 16, DataDir: wantDir})
	wantRows := storedRows(t, wantFleet, wantDir)

	for _, phase := range []string{"pre-append", "mid-append", "pre-journal", "post-journal"} {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			var mu sync.Mutex
			fired := false
			opt := Options{Workers: 4, QueueDepth: 16, DataDir: dir}
			opt.CrashAt = func(id string, window int, ph string) bool {
				mu.Lock()
				defer mu.Unlock()
				if id == "inst-03" && window == 1 && ph == phase {
					fired = true
					return true
				}
				return false
			}
			f, err := New(specs, opt)
			if err != nil {
				t.Fatal(err)
			}
			f.Start()
			f.Wait()
			st := f.Status()
			f.Close() // post-crash: leaves files exactly as the kill did
			mu.Lock()
			if !fired {
				mu.Unlock()
				t.Fatal("crash hook never fired")
			}
			mu.Unlock()
			if st.Committed == 4*3 {
				t.Fatal("crash killed nothing: every window already committed")
			}

			// Reopen the same directory: every instance must resume at its
			// journal watermark and finish the remainder.
			got, f2 := runReport(t, specs, Options{Workers: 4, QueueDepth: 16, DataDir: dir})
			if got != want {
				t.Fatalf("post-restart report diverged\n--- uninterrupted ---\n%s\n--- resumed(%s) ---\n%s", want, phase, got)
			}
			for _, is := range f2.Status().Instances {
				if !is.Done || is.Committed != is.Windows {
					t.Fatalf("instance %s did not finish: committed %d/%d", is.ID, is.Committed, is.Windows)
				}
			}
			gotRows := storedRows(t, f2, dir)
			for _, id := range f2.IDs() {
				got, want := gotRows[id], wantRows[id]
				if len(got) != len(want) || len(want) == 0 {
					t.Fatalf("%s: %d stored rows after the restart, %d uninterrupted", id, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s row %d: %+v after the restart, %+v uninterrupted", id, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestFleetRestartNoRemainder pins the already-finished case: reopening a
// completed fleet runs zero new windows and rebuilds the identical report
// purely from the journal.
func TestFleetRestartNoRemainder(t *testing.T) {
	specs := testSpecs()
	dir := t.TempDir()
	want, _ := runReport(t, specs, Options{Workers: 2, DataDir: dir})
	got, f := runReport(t, specs, Options{Workers: 2, DataDir: dir})
	if got != want {
		t.Fatalf("journal-rebuilt report diverged\n--- live ---\n%s\n--- rebuilt ---\n%s", want, got)
	}
	if st := f.Status(); st.Instances[0].Simulated != st.Instances[0].Windows {
		t.Fatalf("restart re-simulated: %+v", st.Instances[0])
	}
}

// TestFleetShedPolicy forces backpressure: one worker gives simulator
// steps strict priority over diagnosis drains, so a depth-1 queue must
// shed every window but the last — yet all windows still commit their
// records, keeping the topic contiguous.
func TestFleetShedPolicy(t *testing.T) {
	spec := DefaultSpec("shed", 11, 4, 300)
	f, err := New([]InstanceSpec{spec}, Options{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Status().Instances[0]
	if st.Committed != 4 {
		t.Fatalf("committed %d windows, want 4 (shed windows must still commit)", st.Committed)
	}
	if st.Shed != 3 {
		t.Fatalf("shed %d windows, want 3 (all but the final drain)", st.Shed)
	}
	reps, _ := f.Diagnoses("shed")
	for w, rep := range reps {
		if rep.Records == 0 {
			t.Fatalf("window %d committed no records", w)
		}
		if shed := w < 3; rep.Shed != shed {
			t.Fatalf("window %d shed=%v, want %v", w, rep.Shed, shed)
		}
		if rep.Shed && len(rep.Anomalies) > 0 {
			t.Fatalf("window %d kept a diagnosis despite being shed", w)
		}
	}
	if c := f.insts["shed"].cShed.Value(); c != 3 {
		t.Fatalf("shed counter = %d, want 3", c)
	}
}

// TestCommitReleasesCollector: a committed window's collector is ended — its
// window log's chunks are the pool's again — whether the window was
// diagnosed or shed, and its records are in the segment store.
func TestCommitReleasesCollector(t *testing.T) {
	for _, shed := range []bool{false, true} {
		f, err := New([]InstanceSpec{DefaultSpec("release", 11, 1, 60)}, Options{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		st := f.insts["release"]
		sw, _, err := f.simWindow(st, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sw.shed = shed; !shed {
			f.diagnose(sw)
		}
		if err := f.commit(st, sw); err != nil {
			t.Fatal(err)
		}
		if got := st.seg.Len("release"); int64(got) != sw.rep.Records || got == 0 {
			t.Fatalf("shed=%v: the store holds %d records, the window %d", shed, got, sw.rep.Records)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shed=%v: the window's collector is still live after its commit", shed)
				}
			}()
			sw.coll.Records()
		}()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFleetStopDrains checks graceful shutdown: Stop commits everything
// already queued, seals the durable topics, and a restart picks up the
// remaining windows.
func TestFleetStopDrains(t *testing.T) {
	specs := testSpecs()
	dir := t.TempDir()
	want, _ := runReport(t, specs, Options{Workers: 4, DataDir: t.TempDir()})

	f, err := New(specs, Options{Workers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Stop after the very first commit: the fleet must drain cleanly with
	// most windows still unrun.
	committed := make(chan struct{}, 1)
	f.opt.OnCommit = func(string, *WindowReport) {
		select {
		case committed <- struct{}{}:
		default:
		}
	}
	f.Start()
	<-committed
	if err := f.Stop(); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); !st.Draining {
		t.Fatal("Stop did not mark the fleet draining")
	}

	got, _ := runReport(t, specs, Options{Workers: 4, DataDir: dir})
	if got != want {
		t.Fatalf("drain+restart report diverged\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestFleetHTTP reads what the control plane serves — shard.Manager.Handler
// renders these same accessors — from a fleet that ran to completion.
func TestFleetHTTP(t *testing.T) {
	specs := DefaultFleet(2, 3, 2, 300)
	f, err := New(specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if st := f.Status(); len(st.Instances) != 2 || !st.Done || st.Committed != 4 {
		t.Fatalf("unexpected status: %+v", st)
	}

	reps, ok := f.Diagnoses("inst-00")
	if !ok || len(reps) != 2 || reps[1].Records == 0 {
		t.Fatalf("unexpected diagnoses: %+v", reps)
	}
	if _, ok := f.Diagnoses("nope"); ok {
		t.Fatal("an unknown instance has diagnoses")
	}

	var b strings.Builder
	if err := f.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	metrics := b.String()
	for _, want := range []string{
		`pinsql_fleet_windows_total{instance="inst-00"} 2`,
		`pinsql_fleet_anomalies_total{instance=`,
		`pinsql_fleet_shed_windows_total{instance="inst-01"} 0`,
		`pinsql_registry_raw_cache_hits_total{instance=`,
		`pinsql_fleet_queue_depth{instance="inst-01"} 0`,
		`pinsql_ingest_parse_errors_total{instance="inst-00"} 0`,
		`pinsql_ingest_lag_seconds{instance="inst-01"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, metrics)
		}
	}
	// The simulator replays through the ingest seam like any trace, so
	// its records counter must reflect the committed windows.
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, `pinsql_ingest_records_total{instance="inst-00"}`) {
			if strings.HasSuffix(line, " 0") {
				t.Fatalf("ingest records counter stuck at zero: %s", line)
			}
		}
	}
	if !strings.Contains(metrics, `pinsql_ingest_records_total{instance="inst-00"}`) {
		t.Fatal("metrics missing pinsql_ingest_records_total")
	}
}

// panicSource is a trace whose Next panics on the first batch at or past
// second at.
type panicSource struct {
	ingest.Source
	at int64
}

func (s *panicSource) Next() (ingest.Batch, error) {
	b, err := s.Source.Next()
	if err == nil && b.Second >= s.at {
		panic("trace source broke")
	}
	return b, err
}

// TestFleetTaskPanicFailsInstance: a panic inside an instance's task — here
// its trace source, in window 2 — fails that instance with the panic's value
// and stack, and nothing waits on it: Wait returns the error, the other
// instances report what they report without it, and Close returns.
func TestFleetTaskPanicFailsInstance(t *testing.T) {
	const windowSec = 300
	healthy := DefaultFleet(2, 5, 3, windowSec)
	want, _ := runReport(t, healthy, Options{Workers: 2})

	faulty := TraceSpec("faulty", windowSec, func() (ingest.Source, error) {
		world := workload.DefaultWorld(9)
		cfg := dbsim.DefaultConfig()
		cfg.Seed = 9
		sim := dbsim.NewInstance(cfg)
		world.Apply(sim)
		return &panicSource{Source: ingest.NewSimSource(world, sim, 9, 4, windowSec), at: 2 * windowSec}, nil
	})
	f, err := New(append(slices.Clone(healthy), faulty), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	within := func(what string, fn func() error) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			return err
		case <-time.After(time.Minute):
			t.Fatalf("%s did not return after a task panicked", what)
			return nil
		}
	}
	err = within("Wait", f.Wait)
	if err == nil || !strings.Contains(err.Error(), "instance faulty: panic: trace source broke") || !strings.Contains(err.Error(), "panicSource") {
		t.Fatalf("Wait = %v, want the faulty instance's panic with its stack", err)
	}
	var got strings.Builder
	for _, id := range []string{"inst-00", "inst-01"} {
		reps, _ := f.Diagnoses(id)
		FormatInstanceReport(&got, id, reps)
	}
	if got.String() != want {
		t.Fatalf("healthy instances' reports changed beside a failed one\n--- alone ---\n%s\n--- beside it ---\n%s", want, got.String())
	}
	within("Close", f.Close)
}
