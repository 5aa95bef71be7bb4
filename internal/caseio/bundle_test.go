package caseio

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

// testBundle builds a tiny but fully valid manifest + case document pair.
func testBundle(t testing.TB) (*ReproManifest, *File) {
	t.Helper()
	file := &File{
		Version:       CurrentVersion,
		Seconds:       8,
		Anomaly:       Window{Start: 3, End: 6},
		Rule:          "test",
		ActiveSession: []float64{1, 1, 1, 6, 7, 6, 1, 1},
		CPUUsage:      []float64{0.2, 0.2, 0.2, 0.9, 0.9, 0.9, 0.2, 0.2},
		Templates: []Template{{
			ID:      "tpl-a",
			SQL:     "SELECT a FROM t WHERE id = ?",
			Count:   []float64{2, 2, 2, 9, 9, 9, 2, 2},
			SumRT:   []float64{10, 10, 10, 400, 420, 410, 10, 10},
			SumRows: []float64{4, 4, 4, 60, 60, 60, 4, 4},
		}, {
			ID:      "tpl-b",
			SQL:     "UPDATE t SET v = ? WHERE id = ?",
			Count:   []float64{1, 1, 1, 1, 1, 1, 1, 1},
			SumRT:   []float64{5, 5, 5, 5, 5, 5, 5, 5},
			SumRows: []float64{1, 1, 1, 1, 1, 1, 1, 1},
		}},
	}
	file.Name = "bundle-test"
	file.Truth = &Truth{RSQLs: []string{"tpl-b"}, HSQLs: []string{"tpl-a"}, Kind: "poor_sql"}

	m := &ReproManifest{
		Version:   ManifestVersion,
		Name:      "bundle-test",
		Seed:      42,
		CaseIndex: 3,
		TraceSec:  file.Seconds,
		Arm:       "poor_sql/hi/confuser",
		Params: ReproParams{
			Kind: "poor_sql", Service: 1, Intensity: 2.5,
			StartSec: 3, DurSec: 3, ConfuserService: -1,
		},
		Expected: []string{"tpl-b"},
		ActualR:  []string{"tpl-a", "tpl-b"},
		ActualH:  []string{"tpl-a"},
		Verdict: Verdict{
			RankOfTruth: 2, Top3Hit: true, RFalseAhead: 1,
			HFalseTop5: 0, Score: 0.425, Miss: true,
		},
	}
	return m, file
}

func TestBundleRoundTrip(t *testing.T) {
	m, file := testBundle(t)
	dir := filepath.Join(t.TempDir(), "repro")
	if err := WriteBundle(dir, m, file); err != nil {
		t.Fatal(err)
	}
	m2, f2, err := ReadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("manifest round-trip diverged:\n%+v\n%+v", m, m2)
	}
	if f2.Truth == nil || f2.Truth.RSQLs[0] != "tpl-b" {
		t.Fatalf("truth labels lost in round-trip: %+v", f2.Truth)
	}
	// The re-read case must rebuild the same frame the writer serialized.
	_, fr, err := f2.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumTemplates() != 2 || fr.Seconds != 8 {
		t.Fatalf("frame reconstruction wrong: %d templates, %d seconds", fr.NumTemplates(), fr.Seconds)
	}
	// Canonical manifest bytes are stable across a write/read cycle.
	b1, err := m.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.MarshalIndented()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("canonical manifest bytes diverged across round-trip")
	}
}

func TestManifestValidate(t *testing.T) {
	base, _ := testBundle(t)
	tests := []struct {
		name   string
		mutate func(*ReproManifest)
	}{
		{"bad version", func(m *ReproManifest) { m.Version = 99 }},
		{"no name", func(m *ReproManifest) { m.Name = "" }},
		{"no expected", func(m *ReproManifest) { m.Expected = nil }},
		{"negative rank", func(m *ReproManifest) { m.Verdict.RankOfTruth = -1 }},
		{"top1 inconsistent", func(m *ReproManifest) { m.Verdict.Top1Hit = true }},
		{"miss inconsistent", func(m *ReproManifest) {
			m.Verdict.RankOfTruth = 1
			m.Verdict.Top1Hit = true
			m.Verdict.Miss = true
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := *base
			m.Verdict = base.Verdict
			tc.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Fatal("expected validation error")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("base manifest should validate: %v", err)
	}
}

// FuzzReproBundle drives arbitrary bytes through the bundle parsers — the
// manifest decoder and the caseio frame parser — asserting panic-freedom
// and, for inputs that parse, stable canonical re-encoding.
func FuzzReproBundle(f *testing.F) {
	m, file := testBundle(f)
	mb, err := m.MarshalIndented()
	if err != nil {
		f.Fatal(err)
	}
	var cb bytes.Buffer
	if err := file.Write(&cb); err != nil {
		f.Fatal(err)
	}
	f.Add(mb, cb.Bytes())
	f.Add([]byte(`{"version":1}`), []byte(`{"version":1,"seconds":-3}`))
	f.Add([]byte(`not json`), []byte(`[]`))

	f.Fuzz(func(t *testing.T, manifestJSON, caseJSON []byte) {
		if m, err := ParseManifest(manifestJSON); err == nil {
			// A valid manifest re-encodes canonically and re-parses equal.
			b, err := m.MarshalIndented()
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			m2, err := ParseManifest(b)
			if err != nil {
				t.Fatalf("canonical bytes failed to re-parse: %v", err)
			}
			if !reflect.DeepEqual(m, m2) {
				t.Fatalf("canonical re-parse diverged: %+v vs %+v", m, m2)
			}
		}

		cf, err := Read(bytes.NewReader(caseJSON))
		if err != nil {
			return
		}
		// Bound resource use before reconstructing series: pad() allocates
		// Seconds samples per template.
		if cf.Seconds > 4096 || len(cf.Templates) > 256 || len(cf.Queries) > 8192 {
			return
		}
		var hist int
		for _, h := range cf.History {
			hist += len(h.Counts)
		}
		if hist > 256 {
			return
		}
		c1, fr1, err := cf.ToFrame()
		if err != nil {
			return
		}
		// Idempotence oracle: a frame round-tripped through the document
		// format must rebuild the identical frame.
		doc := FromFrame(c1, fr1)
		doc.Truth = cf.Truth
		var buf bytes.Buffer
		if err := doc.Write(&buf); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		cf2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-serialized document failed to parse: %v", err)
		}
		c2, fr2, err := cf2.ToFrame()
		if err != nil {
			t.Fatalf("re-serialized document failed to rebuild: %v", err)
		}
		if c1.AS != c2.AS || c1.AE != c2.AE || fr1.NumTemplates() != fr2.NumTemplates() || fr1.NumObs() != fr2.NumObs() {
			t.Fatalf("frame round-trip diverged: [%d,%d) %dT/%dN vs [%d,%d) %dT/%dN",
				c1.AS, c1.AE, fr1.NumTemplates(), fr1.NumObs(),
				c2.AS, c2.AE, fr2.NumTemplates(), fr2.NumObs())
		}
		for pos := 0; pos < fr1.NumTemplates(); pos++ {
			a1, r1 := fr1.Obs(pos)
			a2, r2 := fr2.Obs(pos)
			if len(a1) != len(a2) {
				t.Fatalf("template %d observation count diverged", pos)
			}
			for i := range a1 {
				if a1[i] != a2[i] || r1[i] != r2[i] {
					t.Fatalf("template %d observation %d diverged", pos, i)
				}
			}
		}
	})
}

// TestReproBundleSeeds replays the committed seed corpus through the same
// oracle the fuzz target uses, so the seeds stay green without -fuzz.
func TestReproBundleSeeds(t *testing.T) {
	m, file := testBundle(t)
	if _, err := m.MarshalIndented(); err != nil {
		t.Fatal(err)
	}
	var cb bytes.Buffer
	if err := file.Write(&cb); err != nil {
		t.Fatal(err)
	}
	cf, err := Read(bytes.NewReader(cb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var d json.RawMessage
	if err := json.Unmarshal(cb.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cf.ToFrame(); err != nil {
		t.Fatal(err)
	}
}
