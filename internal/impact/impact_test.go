package impact

import (
	"math/rand"
	"sort"
	"testing"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
	"pinsql/internal/window"
)

// sessionFrame builds a frame over the given templates, laid out in
// descending ID order so that ByID is a real permutation, and their session
// series by frame position.
func sessionFrame(sessions map[sqltemplate.ID]timeseries.Series) (*window.Frame, []timeseries.Series) {
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, string(id))
	}
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	f := &window.Frame{Topic: "impact", Off: make([]int32, len(ids)+1)}
	byPos := make([]timeseries.Series, len(ids))
	for i, id := range ids {
		f.Templates = append(f.Templates, window.Template{
			Meta: window.Meta{Index: int32(i), ID: sqltemplate.ID(id)},
		})
		byPos[i] = sessions[sqltemplate.ID(id)]
		f.Seconds = len(byPos[i])
	}
	f.Finalize()
	return f, byPos
}

// sparse is each session as RankFrame takes it.
func sparse(byPos []timeseries.Series) []timeseries.Sparse {
	out := make([]timeseries.Sparse, len(byPos))
	for pos, s := range byPos {
		out[pos] = timeseries.SparseOf(s)
	}
	return out
}

// rank is RankFrame over sessionFrame(sessions).
func rank(sessions map[sqltemplate.ID]timeseries.Series, instSession timeseries.Series, as, ae int, opt Options) []Score {
	f, byPos := sessionFrame(sessions)
	return RankFrame(f, sparse(byPos), instSession, as, ae, opt)
}

// scenario builds an instance session trace with an anomaly window driven
// by the "HSQL" template, a big stable template, and small noise templates.
// bump is the anomaly's session lift; with a small bump the stable template
// keeps the largest anomaly-window mass, which is the hard case for
// Top-SQL-style rankings.
func scenario(rng *rand.Rand, bump float64) (map[sqltemplate.ID]timeseries.Series, timeseries.Series, int, int) {
	n, as, ae := 600, 300, 360
	sessions := make(map[sqltemplate.ID]timeseries.Series)

	hsql := make(timeseries.Series, n)
	stable := make(timeseries.Series, n)
	tiny := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		hsql[i] = 0.5 + 0.1*rng.Float64()
		if i >= as && i < ae {
			hsql[i] += bump // the anomaly: this template's sessions pile up
		}
		stable[i] = 10 + rng.Float64() // heavy but flat traffic
		tiny[i] = 0.05 * rng.Float64() // noise template
	}
	sessions["HSQL"] = hsql
	sessions["STABLE"] = stable
	sessions["TINY"] = tiny

	inst := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		inst[i] = hsql[i] + stable[i] + tiny[i]
	}
	return sessions, inst, as, ae
}

func TestRankIdentifiesHSQL(t *testing.T) {
	sessions, inst, as, ae := scenario(rand.New(rand.NewSource(1)), 40)
	scores := rank(sessions, inst, as, ae, DefaultOptions())
	if len(scores) != 3 {
		t.Fatalf("scores = %d, want 3", len(scores))
	}
	if scores[0].ID != "HSQL" {
		t.Errorf("top template = %s (%+v), want HSQL", scores[0].ID, scores)
	}
}

func TestRankScoreBounds(t *testing.T) {
	sessions, inst, as, ae := scenario(rand.New(rand.NewSource(2)), 40)
	for _, sc := range rank(sessions, inst, as, ae, DefaultOptions()) {
		for name, v := range map[string]float64{
			"trend": sc.Trend, "scale": sc.Scale, "scale-trend": sc.ScaleTrend,
		} {
			if v < -1-1e-9 || v > 1+1e-9 {
				t.Errorf("%s score of %s = %v outside [-1,1]", name, sc.ID, v)
			}
		}
		if sc.Impact < -3-1e-9 || sc.Impact > 3+1e-9 {
			t.Errorf("impact of %s = %v outside [-3,3]", sc.ID, sc.Impact)
		}
	}
}

func TestRankStableTrafficNotTop(t *testing.T) {
	// The stable template has by far the largest total session mass; a
	// pure Top-RT style ranking would place it first. Impact must not.
	sessions, inst, as, ae := scenario(rand.New(rand.NewSource(3)), 3)
	stableMass := sessions["STABLE"].Slice(as, ae).Sum()
	hsqlMass := sessions["HSQL"].Slice(as, ae).Sum()
	if stableMass < hsqlMass {
		t.Fatal("scenario must make the stable template dominant in window mass")
	}
	scores := rank(sessions, inst, as, ae, DefaultOptions())
	if scores[0].ID == "STABLE" {
		t.Errorf("stable-traffic template ranked top: %+v", scores)
	}
}

func TestRankAblationTrendMatters(t *testing.T) {
	// With a template whose only virtue is scale (stable giant), removing
	// the trend and scale-trend signals should promote it.
	sessions, inst, as, ae := scenario(rand.New(rand.NewSource(4)), 3)
	opt := DefaultOptions()
	opt.UseTrend = false
	opt.UseScaleTrend = false
	opt.WeightedScore = false
	scores := rank(sessions, inst, as, ae, opt)
	if scores[0].ID != "STABLE" {
		t.Errorf("scale-only ranking top = %s, want STABLE", scores[0].ID)
	}
}

func TestRankEmptyInput(t *testing.T) {
	if got := rank(nil, timeseries.Series{1, 2}, 0, 1, DefaultOptions()); got != nil {
		t.Errorf("empty rank = %+v", got)
	}
}

func TestRankSingleTemplate(t *testing.T) {
	s := timeseries.Series{1, 2, 3, 10, 10, 3, 2, 1}
	sessions := map[sqltemplate.ID]timeseries.Series{"ONLY": s}
	scores := rank(sessions, s.Clone(), 3, 5, DefaultOptions())
	if len(scores) != 1 {
		t.Fatalf("scores = %+v", scores)
	}
	// MinMax of a single value is 0 → scale = -1; trend = 1 (identical
	// series). Just assert the call is well-formed and bounded.
	if scores[0].Trend < 0.99 {
		t.Errorf("trend of identical series = %v, want ≈ 1", scores[0].Trend)
	}
}

func TestRankConstantInstanceSession(t *testing.T) {
	flat := make(timeseries.Series, 100)
	for i := range flat {
		flat[i] = 5
	}
	sessions := map[sqltemplate.ID]timeseries.Series{
		"A": flat.Clone(),
		"B": flat.Clone(),
	}
	scores := rank(sessions, flat, 40, 60, DefaultOptions())
	for _, sc := range scores {
		if sc.Trend != 0 || sc.ScaleTrend != 0 {
			t.Errorf("zero-variance trend scores: %+v", sc)
		}
	}
}

func TestRankDeterministic(t *testing.T) {
	sessions, inst, as, ae := scenario(rand.New(rand.NewSource(6)), 40)
	a := rank(sessions, inst, as, ae, DefaultOptions())
	b := rank(sessions, inst, as, ae, DefaultOptions())
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Impact != b[i].Impact {
			t.Fatalf("rank not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// DefaultOptions returns the full PinSQL configuration.
func DefaultOptions() Options {
	return Options{
		SmoothKs:      DefaultSmoothKs,
		UseTrend:      true,
		UseScale:      true,
		UseScaleTrend: true,
		WeightedScore: true,
	}
}
