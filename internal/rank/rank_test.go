package rank

import (
	"testing"

	"pinsql/internal/collect"
	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

func ids(ss ...string) []sqltemplate.ID {
	out := make([]sqltemplate.ID, len(ss))
	for i, s := range ss {
		out[i] = sqltemplate.ID(s)
	}
	return out
}

func truth(ss ...string) map[sqltemplate.ID]bool {
	m := make(map[sqltemplate.ID]bool)
	for _, s := range ss {
		m[sqltemplate.ID(s)] = true
	}
	return m
}

func TestHit(t *testing.T) {
	ranked := ids("A", "B", "C", "D", "E", "F")
	tr := truth("C")
	if Hit(ranked, tr, 1) {
		t.Error("H@1 should miss")
	}
	if !Hit(ranked, tr, 5) {
		t.Error("H@5 should hit")
	}
	if Hit(ids(), tr, 5) {
		t.Error("empty ranking cannot hit")
	}
	if !Hit(ids("C"), tr, 10) {
		t.Error("k beyond length must clamp")
	}
}

func TestReciprocalRank(t *testing.T) {
	ranked := ids("A", "B", "C")
	if got := ReciprocalRank(ranked, truth("A")); got != 1 {
		t.Errorf("RR = %v, want 1", got)
	}
	if got := ReciprocalRank(ranked, truth("C")); got != 1.0/3 {
		t.Errorf("RR = %v, want 1/3", got)
	}
	if got := ReciprocalRank(ranked, truth("Z")); got != 0 {
		t.Errorf("RR = %v, want 0", got)
	}
	// Multiple truths: first hit counts.
	if got := ReciprocalRank(ranked, truth("B", "C")); got != 0.5 {
		t.Errorf("RR = %v, want 0.5", got)
	}
}

func TestEvaluate(t *testing.T) {
	rankings := [][]sqltemplate.ID{
		ids("R1", "X", "Y"), // hit@1
		ids("X", "R2", "Y"), // hit@5, RR 1/2
		ids("X", "Y", "Z"),  // miss
	}
	truths := []map[sqltemplate.ID]bool{truth("R1"), truth("R2"), truth("R3")}
	ev := Evaluate(rankings, truths)
	if !almostEq(ev.H1, 1.0/3) || !almostEq(ev.H5, 2.0/3) {
		t.Errorf("H1 = %v H5 = %v", ev.H1, ev.H5)
	}
	if !almostEq(ev.MRR, (1+0.5+0)/3) {
		t.Errorf("MRR = %v", ev.MRR)
	}
	if ev.Cases != 3 {
		t.Errorf("cases = %d", ev.Cases)
	}
}

func TestEvaluateDegenerate(t *testing.T) {
	if ev := Evaluate(nil, nil); ev.Cases != 0 || ev.H1 != 0 {
		t.Errorf("empty evaluate = %+v", ev)
	}
	// Length mismatch returns zero value rather than panicking.
	if ev := Evaluate([][]sqltemplate.ID{ids("A")}, nil); ev.Cases != 0 {
		t.Errorf("mismatched evaluate = %+v", ev)
	}
}

func frameFor(t *testing.T) *window.Frame {
	t.Helper()
	c := collect.NewCollector("db", 0, 10_000, nil, nil)
	add := func(tpl string, sec int, rt float64, rows int64) {
		c.Ingest(dbsim.LogRecord{
			TemplateID: tpl, SQL: tpl, Table: "t", Kind: dbsim.KindSelect,
			ArrivalMs: int64(sec * 1000), ResponseMs: rt, ExaminedRows: rows,
		})
	}
	// Window [2,5): EN ranks by count, RT by summed time, ER by rows.
	add("MANY", 2, 1, 1)
	add("MANY", 3, 1, 1)
	add("MANY", 4, 1, 1)
	add("SLOW", 3, 500, 10)
	add("SCAN", 3, 5, 100_000)
	// Outside the window: must not count.
	add("SLOW", 8, 9999, 1)
	return c.Frame()
}

func TestTopSQLVariants(t *testing.T) {
	f := frameFor(t)
	if got := TopSQL(f, 2, 5, MethodTopEN)[0]; got != "MANY" {
		t.Errorf("Top-EN first = %s", got)
	}
	if got := TopSQL(f, 2, 5, MethodTopRT)[0]; got != "SLOW" {
		t.Errorf("Top-RT first = %s", got)
	}
	if got := TopSQL(f, 2, 5, MethodTopER)[0]; got != "SCAN" {
		t.Errorf("Top-ER first = %s", got)
	}
	// All variants rank every template.
	if got := TopSQL(f, 2, 5, MethodTopRT); len(got) != 3 {
		t.Errorf("ranking length = %d, want 3", len(got))
	}
}

func TestTopSQLDeterministicTies(t *testing.T) {
	f := &window.Frame{
		Seconds: 3,
		Templates: []window.Template{
			{Meta: window.Meta{ID: "B"}, Count: timeseries.Series{1, 1, 1}, SumRT: timeseries.Series{1, 1, 1}, SumRows: timeseries.Series{0, 0, 0}},
			{Meta: window.Meta{ID: "A"}, Count: timeseries.Series{1, 1, 1}, SumRT: timeseries.Series{1, 1, 1}, SumRows: timeseries.Series{0, 0, 0}},
		},
	}
	got := TopSQL(f, 0, 3, MethodTopRT)
	if got[0] != "A" || got[1] != "B" {
		t.Errorf("tie order = %v, want [A B]", got)
	}
}

func TestMethods(t *testing.T) {
	ms := Methods()
	if len(ms) != 3 || ms[0] != MethodTopRT {
		t.Errorf("methods = %v", ms)
	}
}

func TestBestOf(t *testing.T) {
	a := Eval{H1: 0.3, H5: 0.6, MRR: 0.4, Cases: 10}
	b := Eval{H1: 0.1, H5: 0.9, MRR: 0.3, Cases: 10}
	best := BestOf(a, b)
	if best.H1 != 0.3 || best.H5 != 0.9 || best.MRR != 0.4 {
		t.Errorf("best = %+v", best)
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
