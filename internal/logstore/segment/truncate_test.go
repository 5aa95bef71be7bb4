package segment

import (
	"math/rand"
	"reflect"
	"testing"

	"pinsql/internal/logstore"
)

// TestTruncateFromEquivalence drives the same ingest + TruncateFrom
// sequence into both backends and asserts identical removal counts and
// byte-identical scans — including after a close/reopen cycle, proving
// the truncation is durable (whole segments deleted, straddling segments
// and the wal cut in place).
func TestTruncateFromEquivalence(t *testing.T) {
	dir := t.TempDir()
	opts := Options{ttlMs: 1 << 60, segmentRecords: 16, indexEvery: 4}
	mem := logstore.New(1 << 60)
	seg := logstore.Backend(mustOpen(t, dir, opts))

	rng := rand.New(rand.NewSource(11))
	var clock int64
	ingest := func(n int) {
		for i := 0; i < n; i++ {
			clock += int64(rng.Intn(300))
			rec := logstore.Record{
				TemplateIdx:  int32(rng.Intn(40)),
				ArrivalMs:    clock,
				ResponseMs:   rng.Float64() * 500,
				ExaminedRows: int64(rng.Intn(1000)),
			}
			if rng.Intn(4) == 0 {
				rec.ArrivalMs -= 1 + int64(rng.Intn(10_000)) // stragglers: refused by both
			}
			if e1, e2 := mem.Append("t", rec), seg.Append("t", rec); e1 != e2 {
				t.Fatalf("append %+v: mem=%v seg=%v", rec, e1, e2)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		if got, want := seg.Len("t"), mem.Len("t"); got != want {
			t.Fatalf("%s: Len seg %d, mem %d", stage, got, want)
		}
		got := seg.Scan("t", -1<<60, 1<<60)
		want := mem.Scan("t", -1<<60, 1<<60)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scan diverged (%d vs %d records)", stage, len(got), len(want))
		}
	}

	// Several rounds: ingest enough to seal multiple 16-record segments,
	// truncate at a boundary that lands mid-segment, re-ingest, repeat.
	for round := 0; round < 4; round++ {
		ingest(120)
		check("after ingest")
		cut := clock - int64(rng.Intn(8000)) // lands inside sealed data
		r1 := mem.TruncateFrom("t", cut)
		r2 := seg.TruncateFrom("t", cut)
		if r1 != r2 {
			t.Fatalf("round %d: TruncateFrom(%d) removed mem %d, seg %d", round, cut, r1, r2)
		}
		if r1 == 0 {
			t.Fatalf("round %d: truncation removed nothing — test lost its teeth", round)
		}
		check("after truncate")
		// Appends after a truncation must still land and stay ordered.
		clock = cut // resume the clock at the cut so replay-style appends are in range
		ingest(40)
		check("after re-ingest")
	}

	// The truncation must survive restart: reopen and compare again.
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg = mustOpen(t, dir, opts)
	defer seg.Close()
	check("after reopen")
}

// TestTruncateFromEdgeCases pins the degenerate boundaries.
func TestTruncateFromEdgeCases(t *testing.T) {
	for _, backend := range []string{"mem", "segment"} {
		t.Run(backend, func(t *testing.T) {
			var st logstore.Backend
			if backend == "mem" {
				st = logstore.New(0)
			} else {
				st = mustOpen(t, t.TempDir(), Options{segmentRecords: 4, indexEvery: 2})
				defer st.Close()
			}
			if got := st.TruncateFrom("missing", 0); got != 0 {
				t.Fatalf("unknown topic removed %d", got)
			}
			for ms := int64(0); ms < 20; ms++ {
				st.Append("t", logstore.Record{ArrivalMs: ms * 100})
			}
			if got := st.TruncateFrom("t", 10_000); got != 0 {
				t.Fatalf("cut beyond max removed %d", got)
			}
			if got := st.TruncateFrom("t", 1000); got != 10 {
				t.Fatalf("mid cut removed %d, want 10", got)
			}
			if got := st.Len("t"); got != 10 {
				t.Fatalf("Len after mid cut = %d, want 10", got)
			}
			if got := st.TruncateFrom("t", -1); got != 10 {
				t.Fatalf("full cut removed %d, want 10", got)
			}
			if got := st.Len("t"); got != 0 {
				t.Fatalf("Len after full cut = %d, want 0", got)
			}
			if got := st.Topics(); len(got) != 0 {
				t.Fatalf("emptied topic still listed: %v", got)
			}
			// The topic must accept appends again from scratch.
			if err := st.Append("t", logstore.Record{ArrivalMs: 5}); err != nil {
				t.Fatalf("append after full truncation: %v", err)
			}
		})
	}
}
