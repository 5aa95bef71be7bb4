package window

import (
	"testing"

	"pinsql/internal/sqltemplate"
)

// build assembles a three-template frame with hand-placed observations:
// template 0 (ID "c") has out-of-order arrivals with a tie, template 1
// (ID "a") is empty, template 2 (ID "b") is already sorted.
func build(t *testing.T) *Frame {
	t.Helper()
	f := &Frame{
		Topic:   "test",
		StartMs: 0,
		Seconds: 10,
		Templates: []Template{
			{Meta: Meta{Index: 0, ID: sqltemplate.ID("c")}},
			{Meta: Meta{Index: 1, ID: sqltemplate.ID("a")}},
			{Meta: Meta{Index: 2, ID: sqltemplate.ID("b")}},
		},
		Off:      []int32{0, 3, 3, 5},
		Arrival:  []int64{500, 100, 500, 200, 300},
		Response: []float64{1, 2, 3, 4, 5},
	}
	f.Finalize()
	return f
}

func TestFinalizeSortsGroupsByArrival(t *testing.T) {
	f := build(t)
	arr, resp := f.Obs(0)
	wantArr := []int64{100, 500, 500}
	// The two 500ms arrivals tie: stable sort keeps their insertion order,
	// so responses 1 then 3 — the log store's scan tie-break.
	wantResp := []float64{2, 1, 3}
	for i := range wantArr {
		if arr[i] != wantArr[i] || resp[i] != wantResp[i] {
			t.Fatalf("group 0 = %v/%v, want %v/%v", arr, resp, wantArr, wantResp)
		}
	}
	if n := f.ObsLen(1); n != 0 {
		t.Errorf("empty group length = %d", n)
	}
	arr, _ = f.Obs(2)
	if arr[0] != 200 || arr[1] != 300 {
		t.Errorf("pre-sorted group disturbed: %v", arr)
	}
}

func TestFinalizeBuildsByIDPermutation(t *testing.T) {
	f := build(t)
	// Ascending template-ID order: a (pos 1), b (pos 2), c (pos 0).
	want := []int32{1, 2, 0}
	if len(f.ByID) != len(want) {
		t.Fatalf("ByID = %v", f.ByID)
	}
	for i, p := range want {
		if f.ByID[i] != p {
			t.Fatalf("ByID = %v, want %v", f.ByID, want)
		}
	}
}

func TestPosLookup(t *testing.T) {
	f := build(t)
	for _, tc := range []struct {
		id  string
		pos int
	}{{"a", 1}, {"b", 2}, {"c", 0}} {
		pos, ok := f.Pos(sqltemplate.ID(tc.id))
		if !ok || pos != tc.pos {
			t.Errorf("Pos(%q) = %d, %v", tc.id, pos, ok)
		}
		if got := f.Template(sqltemplate.ID(tc.id)); got != &f.Templates[tc.pos] {
			t.Errorf("Template(%q) is not the template at position %d", tc.id, tc.pos)
		}
	}
	if _, ok := f.Pos(sqltemplate.ID("missing")); ok {
		t.Error("Pos found a template that is not there")
	}
	if f.Template(sqltemplate.ID("missing")) != nil {
		t.Error("Template found a template that is not there")
	}
}

func TestCounts(t *testing.T) {
	f := build(t)
	if f.NumTemplates() != 3 {
		t.Errorf("NumTemplates = %d", f.NumTemplates())
	}
	if f.NumObs() != 5 {
		t.Errorf("NumObs = %d", f.NumObs())
	}
	if f.ObsLen(0) != 3 || f.ObsLen(2) != 2 {
		t.Errorf("ObsLen = %d, %d", f.ObsLen(0), f.ObsLen(2))
	}
}

func TestFinalizePanicsOnBadOffsets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Finalize accepted an Off table of the wrong length")
		}
	}()
	f := &Frame{
		Templates: []Template{{Meta: Meta{ID: sqltemplate.ID("x")}}},
		Off:       []int32{0}, // must be len(Templates)+1
	}
	f.Finalize()
}
