package cases

// Regression test for the ordering contract of a collector frame's
// observation groups: within a template the observations are sorted by
// arrival time, with ties preserving the collector's insertion order —
// downstream float summation order (and therefore byte-identical diagnosis
// output) depends on it.

import (
	"math/rand"
	"testing"

	"pinsql/internal/collect"
	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

func TestQueriesOfSortsShuffledInsertions(t *testing.T) {
	const (
		templates = 5
		perTpl    = 40
		windowMs  = 100_000
	)
	type ins struct {
		tpl     int
		arrival int64
		resp    float64
	}
	// A shuffled insertion schedule with deliberate arrival collisions
	// (arrivals quantized to 500ms so ties are frequent).
	rng := rand.New(rand.NewSource(99))
	var schedule []ins
	for tpl := 0; tpl < templates; tpl++ {
		for i := 0; i < perTpl; i++ {
			schedule = append(schedule, ins{
				tpl:     tpl,
				arrival: int64(rng.Intn(windowMs/500)) * 500,
				resp:    float64(1 + rng.Intn(1000)),
			})
		}
	}
	rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })

	coll := collect.NewCollector("order", 0, windowMs, nil, nil)
	ids := []string{"TA", "TB", "TC", "TD", "TE"}
	// wantOrder reproduces the contract by hand: per template, a stable
	// arrival sort over the insertion sequence.
	type obs struct {
		arrival int64
		resp    float64
	}
	want := make(map[string][]obs)
	for _, s := range schedule {
		coll.Ingest(dbsim.LogRecord{
			TemplateID: ids[s.tpl],
			SQL:        "SELECT " + ids[s.tpl],
			Table:      "t",
			Kind:       dbsim.KindSelect,
			ArrivalMs:  s.arrival,
			ResponseMs: s.resp,
		})
		want[ids[s.tpl]] = append(want[ids[s.tpl]], obs{s.arrival, s.resp})
	}
	for _, id := range ids {
		w := want[id]
		// Stable insertion-order-preserving sort by arrival.
		for i := 1; i < len(w); i++ {
			for j := i; j > 0 && w[j-1].arrival > w[j].arrival; j-- {
				w[j-1], w[j] = w[j], w[j-1]
			}
		}
	}

	f := coll.Frame()
	if len(f.Templates) != templates {
		t.Fatalf("a frame of %d templates, want %d", len(f.Templates), templates)
	}
	for _, id := range ids {
		pos, ok := f.Pos(sqltemplate.ID(id))
		if !ok {
			t.Fatalf("%s: not in the frame", id)
		}
		arr, resp := f.Obs(pos)
		w := want[id]
		if len(arr) != len(w) {
			t.Fatalf("%s: %d obs, want %d", id, len(arr), len(w))
		}
		for i := range w {
			if arr[i] != w[i].arrival || resp[i] != w[i].resp {
				t.Fatalf("%s obs %d = (%d, %g), want (%d, %g) — arrival sort or tie order broken",
					id, i, arr[i], resp[i], w[i].arrival, w[i].resp)
			}
		}
	}
}
