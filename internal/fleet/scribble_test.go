package fleet

import (
	"os"
	"path/filepath"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/workload"
)

// scribbler hands on its source's batches and, when asked for the next one,
// first overwrites the one it handed on before with garbage: records of a
// template no input has, and metric rows no instance reports. A batch is
// valid until the next Next (ingest.Source), so a consumer that keeps one
// longer reads the garbage. It scribbles before the source's Next, not
// after, because a source may write its next batch into the same storage.
type scribbler struct {
	ingest.Source
	prev ingest.Batch
}

func (s *scribbler) Next() (ingest.Batch, error) {
	for i := range s.prev.Records {
		s.prev.Records[i] = dbsim.LogRecord{TemplateID: "SCRIBBLED", SQL: "SELECT 'scribbled'", Table: "scribbled",
			ArrivalMs: s.prev.Records[i].ArrivalMs, ResponseMs: 1e6, ExaminedRows: 1e9, LockWaitMs: 1e6}
	}
	for i := range s.prev.Metrics {
		s.prev.Metrics[i] = dbsim.SecondMetrics{Second: s.prev.Metrics[i].Second, ActiveSession: 1e6, AvgActiveSession: 1e6,
			CPUUsage: 1e6, IOPSUsage: 1e6, MemUsage: 1e6, QPS: 1e6, RowLockWaits: 1e6}
	}
	b, err := s.Source.Next()
	s.prev = b
	return b, err
}

// TestFleetKeepsNoBatch: no consumer between a source and the report — the
// player, the collector, the fleet — keeps a batch past the source's next
// Next. Every source scribbled over, the golden fleets still report their
// goldens, and a gzip slow-log instance and a trace-file instance, whose
// adapter stacks write each second into recycled storage, report what they
// report unwrapped.
func TestFleetKeepsNoBatch(t *testing.T) {
	for name, tc := range goldenCases() {
		f, err := New(tc.specs, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range f.insts {
			// Nothing was simulated yet: the same source, wrapped.
			src := ingest.NewSimSource(st.world, st.sim, st.spec.Seed, st.spec.Windows, st.spec.WindowSec)
			st.play = ingest.NewPlayer(&scribbler{Source: src})
		}
		f.Start()
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
		rep := f.Report()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if rep != string(want) {
			t.Fatalf("%s: the scribbled fleet diverged from its golden\n--- golden ---\n%s\n--- scribbled ---\n%s", name, want, rep)
		}
	}

	const windowSec = 120
	trace := filepath.Join(t.TempDir(), "inst.trace.gz")
	out, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	world := workload.DefaultWorld(11)
	cfg := dbsim.DefaultConfig()
	cfg.Seed = 11
	sim := dbsim.NewInstance(cfg)
	world.Apply(sim)
	if err := ingest.WriteTrace(out, 0, 3*windowSec*1000, ingest.NewSimSource(world, sim, 11, 3, windowSec)); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join("..", "..", "examples", "ingest", "orders-slow.log.gz"), trace} {
		open := func() (ingest.Source, error) { return ingest.Open(path, "", ingest.OpenOptions{}) }
		want, _ := runReport(t, []InstanceSpec{TraceSpec("logs", windowSec, open)}, Options{Workers: 2})
		got, _ := runReport(t, []InstanceSpec{TraceSpec("logs", windowSec, func() (ingest.Source, error) {
			src, err := open()
			return &scribbler{Source: src}, err
		})}, Options{Workers: 2})
		if got != want {
			t.Fatalf("%s: the scribbled instance diverged\n--- unwrapped ---\n%s\n--- scribbled ---\n%s", path, want, got)
		}
	}
}
