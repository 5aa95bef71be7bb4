package caseio

// Satellite coverage for parallel case generation: a case generated under
// Workers>1 must serialize to the byte-identical file as the same case
// generated sequentially, and survive a write/read round trip. This pins
// both halves of the determinism story — generation cannot depend on
// worker scheduling, and FromFrame cannot depend on map iteration order.

import (
	"bytes"
	"testing"

	"pinsql/internal/cases"
)

// generateCorpus materializes a tiny corpus at the given worker count.
func generateCorpus(t *testing.T, workers int) []*cases.Labeled {
	t.Helper()
	opt := cases.DefaultOptions()
	opt.TraceSec = 600
	opt.AnomalyStartSec = 300
	opt.AnomalyMinDurSec = 120
	opt.AnomalyMaxDurSec = 180
	opt.FillerServices = 1
	opt.FillerSpecs = 3
	opt.HistoryDays = []int{1}
	opt.Count = 2
	opt.Workers = workers
	labs, err := cases.Generate(opt)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return labs
}

func encodeCase(t *testing.T, lab *cases.Labeled) []byte {
	t.Helper()
	f := FromFrame(lab.Case, lab.Case.Frame)
	f.Name = lab.Name
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParallelGenerationSerializesIdentically(t *testing.T) {
	seq := generateCorpus(t, 1)
	par := generateCorpus(t, 3)
	if len(seq) != len(par) {
		t.Fatalf("corpus sizes differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := encodeCase(t, seq[i]), encodeCase(t, par[i])
		if !bytes.Equal(a, b) {
			t.Errorf("case %d: parallel-generated file differs from sequential (%d vs %d bytes)", i, len(b), len(a))
		}
		// Repeated serialization of the same in-memory case must also be
		// stable — FromFrame may not leak map iteration order.
		if again := encodeCase(t, par[i]); !bytes.Equal(b, again) {
			t.Errorf("case %d: re-serialization not byte-stable", i)
		}
	}

	// The parallel-generated file survives a full round trip.
	f, err := Read(bytes.NewReader(encodeCase(t, par[0])))
	if err != nil {
		t.Fatal(err)
	}
	c, fr, err := f.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if c.AS != par[0].Case.AS || c.AE != par[0].Case.AE {
		t.Errorf("round trip window [%d,%d) vs [%d,%d)", c.AS, c.AE, par[0].Case.AS, par[0].Case.AE)
	}
	if len(c.Frame.Templates) != len(par[0].Case.Frame.Templates) {
		t.Errorf("round trip templates %d vs %d", len(c.Frame.Templates), len(par[0].Case.Frame.Templates))
	}
	if fr.NumObs() == 0 {
		t.Error("round trip dropped raw queries")
	}
}
