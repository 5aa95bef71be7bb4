package caseio

import (
	"bytes"
	"strings"
	"testing"

	"pinsql/internal/sqltemplate"
)

func TestRoundTrip(t *testing.T) {
	fr := frameSample(t).Frame()
	c := caseOf(t, fr)

	var buf bytes.Buffer
	if err := FromFrame(c, fr).Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c2, fr2, err := loaded.ToFrame()
	if err != nil {
		t.Fatal(err)
	}

	if c2.AS != c.AS || c2.AE != c.AE {
		t.Errorf("window [%d,%d) vs [%d,%d)", c2.AS, c2.AE, c.AS, c.AE)
	}
	if c2.Phenomenon.Rule != c.Phenomenon.Rule {
		t.Errorf("rule %q vs %q", c2.Phenomenon.Rule, c.Phenomenon.Rule)
	}
	if len(c2.Frame.Templates) != 3 {
		t.Fatalf("templates = %d", len(c2.Frame.Templates))
	}
	for i, ts := range c.Frame.Templates {
		got := c2.Frame.Template(ts.Meta.ID)
		if got == nil {
			t.Fatalf("template %s missing", ts.Meta.ID)
		}
		if got.Meta.Text != ts.Meta.Text || got.Meta.Table != ts.Meta.Table {
			t.Errorf("template %d meta mismatch: %+v", i, got.Meta)
		}
		for sec := range ts.Count {
			if got.Count[sec] != ts.Count[sec] || got.SumRT[sec] != ts.SumRT[sec] {
				t.Fatalf("template %d series mismatch at %d", i, sec)
			}
		}
	}
	for sec := range c.Frame.ActiveSession {
		if c2.Frame.ActiveSession[sec] != c.Frame.ActiveSession[sec] {
			t.Fatalf("active session mismatch at %d", sec)
		}
	}
	if len(c2.History) != 1 || c2.History[0].DaysAgo != 1 {
		t.Fatalf("history = %+v", c2.History)
	}
	a1, _ := fr2.Pos("A1")
	b2, _ := fr2.Pos("B2")
	if _, resp := fr2.Obs(b2); fr2.NumObs() != 4 || fr2.ObsLen(a1) != 2 || resp[0] != 90 {
		t.Errorf("queries = %v / %v", fr2.Arrival, fr2.Response)
	}
}

func TestToFrameValidation(t *testing.T) {
	valid := func() *File {
		return &File{Version: CurrentVersion, Seconds: 10, Anomaly: Window{Start: 2, End: 6}, Templates: []Template{{ID: "X"}}}
	}
	if _, _, err := valid().ToFrame(); err != nil {
		t.Fatalf("the valid document is rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*File)
	}{
		{"zero seconds", func(f *File) { f.Seconds = 0 }},
		{"future version", func(f *File) { f.Version = 99 }},
		{"no templates", func(f *File) { f.Templates = nil }},
		{"template without id or sql", func(f *File) { f.Templates = []Template{{}} }},
		{"inverted anomaly window", func(f *File) { f.Anomaly = Window{Start: 6, End: 2} }},
		{"empty anomaly window", func(f *File) { f.Anomaly = Window{Start: 4, End: 4} }},
		{"anomaly window past the case", func(f *File) { f.Anomaly = Window{Start: 10, End: 15} }},
		{"anomaly window before the case", func(f *File) { f.Anomaly = Window{Start: -5, End: 0} }},
	} {
		f := valid()
		tc.mut(f)
		if _, _, err := f.ToFrame(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestToCaseDigestsSQLWhenNoID(t *testing.T) {
	f := &File{
		Version: CurrentVersion,
		Seconds: 5,
		Anomaly: Window{Start: 0, End: 5},
		Templates: []Template{
			{SQL: "SELECT * FROM x WHERE id = 42", Count: []float64{1}},
		},
	}
	c, _, err := f.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	want := sqltemplate.New("SELECT * FROM x WHERE id = 42").ID
	if c.Frame.Templates[0].Meta.ID != want {
		t.Errorf("digested ID = %s, want %s", c.Frame.Templates[0].Meta.ID, want)
	}
}

func TestReadToleratesMissingVersion(t *testing.T) {
	doc := `{"seconds": 3, "templates": [{"id":"A","count":[1,2,3],"sum_rt":[1,2,3]}], "anomaly": {"start":0,"end":2}, "active_session":[1,2,3]}`
	f, err := Read(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != CurrentVersion {
		t.Errorf("version = %d", f.Version)
	}
	if _, _, err := f.ToFrame(); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSeriesPadding(t *testing.T) {
	f := &File{
		Version:       CurrentVersion,
		Seconds:       10,
		Anomaly:       Window{Start: 0, End: 10},
		ActiveSession: []float64{1, 2}, // shorter than Seconds
		Templates:     []Template{{ID: "A", Count: []float64{5}}},
	}
	c, _, err := f.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Frame.ActiveSession) != 10 || c.Frame.ActiveSession[1] != 2 || c.Frame.ActiveSession[5] != 0 {
		t.Errorf("padded series = %v", c.Frame.ActiveSession)
	}
	if len(c.Frame.Template("A").Count) != 10 {
		t.Error("template series not padded")
	}
}
