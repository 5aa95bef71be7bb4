package rootcause

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

// buildPoorSQLCase models the paper's poor-SQL mechanism: a newly deployed
// statement ("RSQL") appears at the anomaly start, is itself the heaviest
// session consumer (slow queries pile up → it is its own H-SQL), and slows
// the victims in other business clusters. Trace: 2400 s, anomaly [1800,2100).
func buildPoorSQLCase(rng *rand.Rand) Input {
	n := 2400
	as, ae := 1800, 2100

	rsqlExec := make(timeseries.Series, n)
	victimExec := make(timeseries.Series, n)
	otherExec := make(timeseries.Series, n)
	giantExec := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		if i >= as {
			rsqlExec[i] = 20 + rng.Float64() // new template: zero before deploy
		}
		victimExec[i] = 30 + 25*float64(i%600)/600 + rng.Float64()
		otherExec[i] = 10 + 12*float64((i/250)%2) + rng.Float64()
		giantExec[i] = 200 + rng.Float64()*2
	}

	mkSession := func(base, bump float64) timeseries.Series {
		s := make(timeseries.Series, n)
		for i := range s {
			s[i] = base + 0.1*rng.Float64()
			if i >= as && i < ae {
				s[i] += bump
			}
		}
		return s
	}
	rsqlSess := mkSession(0, 40)   // the poor SQL piles up hardest
	victimSess := mkSession(2, 15) // slowed by CPU contention
	otherSess := mkSession(1, 5)
	giantSess := mkSession(15, 0)

	inst := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		inst[i] = rsqlSess[i] + victimSess[i] + otherSess[i] + giantSess[i]
	}

	templates := []Template{
		{ID: "RSQL", Exec: rsqlExec, Session: timeseries.SparseOf(rsqlSess), Impact: 2.6},
		{ID: "VICTIM", Exec: victimExec, Session: timeseries.SparseOf(victimSess), Impact: 1.8},
		{ID: "OTHER", Exec: otherExec, Session: timeseries.SparseOf(otherSess), Impact: 0.9},
		{ID: "GIANT", Exec: giantExec, Session: timeseries.SparseOf(giantSess), Impact: 0.1},
	}
	history := []HistoryWindow{
		{DaysAgo: 1, Counts: map[sqltemplate.ID]timeseries.Series{
			// RSQL absent (new statement); victims had their usual shapes.
			"VICTIM": victimExec.Clone(),
			"OTHER":  otherExec.Clone(),
			"GIANT":  giantExec.Clone(),
		}},
	}
	return Input{
		Templates:   templates,
		InstSession: inst,
		AS:          as,
		AE:          ae,
		History:     history,
	}
}

func TestIdentifyPinpointsRSQL(t *testing.T) {
	in := buildPoorSQLCase(rand.New(rand.NewSource(1)))
	res := Identify(in, DefaultOptions())
	if len(res.Ranked) == 0 {
		t.Fatal("no candidates returned")
	}
	if res.Ranked[0].ID != "RSQL" {
		t.Errorf("top candidate = %s, want RSQL; ranking = %+v", res.Ranked[0].ID, res.Ranked)
	}
	if !res.Ranked[0].Verified {
		t.Error("RSQL should pass history verification")
	}
}

func TestHistoryVerificationFiltersVictims(t *testing.T) {
	// Victims with flat #execution must never outrank the verified
	// R-SQL, even when their clusters are selected.
	in := buildPoorSQLCase(rand.New(rand.NewSource(2)))
	res := Identify(in, DefaultOptions())
	for _, c := range res.Ranked {
		if c.ID != "RSQL" && c.Verified {
			t.Errorf("flat-traffic template %s passed verification", c.ID)
		}
	}
}

func TestHistoryVerificationFiltersRecurring(t *testing.T) {
	in := buildPoorSQLCase(rand.New(rand.NewSource(3)))
	// Make RSQL's appearance an everyday occurrence: same step in history.
	in.History[0].Counts["RSQL"] = in.Templates[0].Exec.Clone()
	res := Identify(in, DefaultOptions())
	for _, c := range res.Ranked {
		if c.ID == "RSQL" && c.Verified {
			t.Error("recurring step should fail history verification")
		}
	}
}

func TestWithoutHistoryVerification(t *testing.T) {
	in := buildPoorSQLCase(rand.New(rand.NewSource(4)))
	in.History[0].Counts["RSQL"] = in.Templates[0].Exec.Clone()
	opt := DefaultOptions()
	opt.UseHistoryVerification = false
	res := Identify(in, opt)
	found := false
	for _, c := range res.Ranked {
		if c.ID == "RSQL" {
			found = true
		}
	}
	if !found {
		t.Errorf("RSQL missing from unverified ranking: %+v", res.Ranked)
	}
}

func TestClusteringGroupsCoSpikingBusiness(t *testing.T) {
	// A business (QPS) spike lifts every template of one microservice DAG
	// simultaneously (Fig. 4): the shared anomaly spike dominates their
	// variance, so they must land in one cluster, separate from an
	// unrelated stable business.
	rng := rand.New(rand.NewSource(5))
	n, as, ae := 2400, 1800, 2100
	mkDAG := func(base, lift float64) timeseries.Series {
		s := make(timeseries.Series, n)
		for i := 0; i < n; i++ {
			s[i] = base + rng.Float64()
			if i >= as && i < ae {
				s[i] += lift
			}
		}
		return s
	}
	t1 := Template{ID: "API_A1", Exec: mkDAG(10, 80), Impact: 2.0, Session: timeseries.Sparse{N: n}}
	t2 := Template{ID: "API_A2", Exec: mkDAG(25, 200), Impact: 1.5, Session: timeseries.Sparse{N: n}}
	t3 := Template{ID: "API_A3", Exec: mkDAG(4, 30), Impact: 1.2, Session: timeseries.Sparse{N: n}}
	stable := Template{ID: "STABLE", Exec: mkDAG(50, 0), Impact: 0.1, Session: timeseries.Sparse{N: n}}

	in := Input{
		Templates:   []Template{t1, t2, t3, stable},
		InstSession: make(timeseries.Series, n),
		AS:          as, AE: ae,
	}
	res := Identify(in, DefaultOptions())
	top := res.Clusters[0]
	if len(top) != 3 {
		t.Fatalf("top cluster = %v, want the three DAG templates", top)
	}
	members := map[sqltemplate.ID]bool{}
	for _, id := range top {
		members[id] = true
	}
	if !members["API_A1"] || !members["API_A2"] || !members["API_A3"] {
		t.Errorf("top cluster = %v", top)
	}
	if members["STABLE"] {
		t.Errorf("stable business joined the spike cluster: %v", top)
	}
}

func TestCumulativeThresholdSelectsMultipleClusters(t *testing.T) {
	// Two independent businesses contribute to the anomaly in disjoint
	// sub-windows; the top-1 cluster explains only half the session
	// curve, so the cumulative threshold must take both.
	rng := rand.New(rand.NewSource(6))
	n := 1200
	as, ae := 600, 900
	mk := func(from, to int, bump float64) Template {
		exec := make(timeseries.Series, n)
		sess := make(timeseries.Series, n)
		for i := 0; i < n; i++ {
			exec[i] = 5 + rng.Float64()
			sess[i] = 1 + 0.05*rng.Float64()
			if i >= from && i < to {
				exec[i] += 60
				sess[i] += bump
			}
		}
		return Template{Exec: exec, Session: timeseries.SparseOf(sess)}
	}
	a := mk(600, 750, 20)
	a.ID, a.Impact = "BIZ_A", 2.0
	b := mk(750, 900, 18)
	b.ID, b.Impact = "BIZ_B", 1.8
	inst := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		inst[i] = a.Session.RangeSum(i, i+1) + b.Session.RangeSum(i, i+1)
	}
	in := Input{Templates: []Template{a, b}, InstSession: inst, AS: as, AE: ae}

	res := Identify(in, DefaultOptions())
	if len(res.Clusters) < 2 {
		t.Fatalf("expected ≥ 2 clusters, got %d", len(res.Clusters))
	}
	if res.Selected < 2 {
		t.Errorf("selected = %d clusters (cum corr %.3f), want ≥ 2", res.Selected, res.CumulativeCorr)
	}
	ids := map[sqltemplate.ID]bool{}
	for _, c := range res.Ranked {
		ids[c.ID] = true
	}
	if !ids["BIZ_A"] || !ids["BIZ_B"] {
		t.Errorf("ranking = %+v, want both businesses", res.Ranked)
	}

	opt := DefaultOptions()
	opt.UseCumulativeThreshold = false
	res1 := Identify(in, opt)
	if res1.Selected != 1 {
		t.Errorf("w/o cumulative threshold selected = %d, want 1", res1.Selected)
	}
}

func TestMetricTempNodesDensifyGraph(t *testing.T) {
	// Two templates correlate with a metric (ρ > τ each) but barely with
	// each other directly below τ; the temp node must bridge them into
	// one cluster, then be filtered from the output.
	n := 600
	base := make(timeseries.Series, n)
	for i := 0; i < n; i++ {
		base[i] = float64(i % 120)
	}
	noisy := func(eps float64, seed int64) timeseries.Series {
		rng := rand.New(rand.NewSource(seed))
		s := make(timeseries.Series, n)
		for i := range s {
			s[i] = base[i] + eps*rng.NormFloat64()*30
		}
		return s
	}
	a := Template{ID: "A", Exec: noisy(1.0, 1), Session: timeseries.Sparse{N: n}, Impact: 1}
	b := Template{ID: "B", Exec: noisy(1.0, 2), Session: timeseries.Sparse{N: n}, Impact: 0.5}

	withMetric := Input{
		Templates:   []Template{a, b},
		Metrics:     map[string]timeseries.Series{"cpu": base.Clone()},
		InstSession: make(timeseries.Series, n),
		AS:          100, AE: 200,
	}
	corrAB, _ := timeseries.Corr(perMinute(nil, a.Exec), perMinute(nil, b.Exec))
	corrAM, _ := timeseries.Corr(perMinute(nil, a.Exec), perMinute(nil, base))
	if !(corrAB <= DefaultTau && corrAM > DefaultTau) {
		t.Skipf("noise did not produce the bridge condition: AB=%.3f AM=%.3f", corrAB, corrAM)
	}
	res := Identify(withMetric, DefaultOptions())
	if len(res.Clusters[0]) != 2 {
		t.Errorf("bridged cluster = %v, want A and B", res.Clusters[0])
	}
	for _, cl := range res.Clusters {
		for _, id := range cl {
			if id == "cpu" {
				t.Error("metric temp node leaked into clusters")
			}
		}
	}
}

func TestIdentifyEmptyInput(t *testing.T) {
	res := Identify(Input{}, DefaultOptions())
	if len(res.Ranked) != 0 || len(res.Clusters) != 0 {
		t.Errorf("empty input result = %+v", res)
	}
}

func TestIdentifySingleTemplate(t *testing.T) {
	n := 600
	exec := make(timeseries.Series, n)
	sess := make(timeseries.Series, n)
	for i := range exec {
		exec[i] = 1 + float64(i%5)
		if i >= 300 && i < 350 {
			exec[i] += 50
			sess[i] = 20
		}
	}
	inst := sess.Clone()
	in := Input{
		Templates:   []Template{{ID: "ONLY", Exec: exec, Session: timeseries.SparseOf(sess), Impact: 1}},
		InstSession: inst,
		AS:          300, AE: 350,
	}
	res := Identify(in, DefaultOptions())
	if len(res.Ranked) != 1 || res.Ranked[0].ID != "ONLY" {
		t.Errorf("single-template result = %+v", res.Ranked)
	}
}

func TestVerifyFallbackWhenAllFiltered(t *testing.T) {
	// No template has an anomaly-window spike → verification would drop
	// everything; the module must fall back to the unverified pool.
	n := 600
	flatExec := make(timeseries.Series, n)
	sess := make(timeseries.Series, n)
	for i := range flatExec {
		flatExec[i] = 5 + float64(i%2)
		sess[i] = 1
	}
	in := Input{
		Templates:   []Template{{ID: "A", Exec: flatExec, Session: timeseries.SparseOf(sess), Impact: 1}},
		InstSession: sess.Clone(),
		AS:          300, AE: 350,
	}
	res := Identify(in, DefaultOptions())
	if len(res.Ranked) != 1 {
		t.Fatalf("fallback ranking = %+v", res.Ranked)
	}
	if res.Ranked[0].Verified {
		t.Error("fallback candidate must not be marked verified")
	}
}

func TestUnionFindLaws(t *testing.T) {
	f := func(pairs []uint8) bool {
		const n = 16
		uf := newUnionFind(n)
		type pair struct{ a, b int }
		var ps []pair
		for i := 0; i+1 < len(pairs); i += 2 {
			p := pair{int(pairs[i]) % n, int(pairs[i+1]) % n}
			ps = append(ps, p)
			uf.union(p.a, p.b)
		}
		// Union-consistency: every merged pair shares a root.
		for _, p := range ps {
			if uf.find(p.a) != uf.find(p.b) {
				return false
			}
		}
		// Equivalence classes must match a reference partition.
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		var refFind func(x int) int
		refFind = func(x int) int {
			if ref[x] != x {
				ref[x] = refFind(ref[x])
			}
			return ref[x]
		}
		for _, p := range ps {
			ra, rb := refFind(p.a), refFind(p.b)
			if ra != rb {
				ref[ra] = rb
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (uf.find(i) == uf.find(j)) != (refFind(i) == refFind(j)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStandardizeDegenerate(t *testing.T) {
	if standardize(timeseries.Series{5, 5, 5, 5}) != nil {
		t.Error("constant series should standardize to nil")
	}
	v := standardize(timeseries.Series{1, 2, 3})
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm < 0.999 || norm > 1.001 {
		t.Errorf("standardized norm = %v, want 1", norm)
	}
}

// TestCumulativeSumClampsSessionLength: the cumulative threshold sums each
// selected session over the seconds it shares with the instance session —
// a session longer or shorter than it adds what overlaps and nothing else —
// and the correlation has the bits of the dense sum's.
func TestCumulativeSumClampsSessionLength(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 300
	inst := make(timeseries.Series, n)
	for i := range inst {
		inst[i] = rng.Float64() * 8
	}
	var templates []Template
	sum := make(timeseries.Series, n)
	for i, length := range []int{n, n - 40, n + 25, 0} {
		sess := make(timeseries.Series, length)
		for sec := range sess {
			if rng.Intn(3) == 0 {
				sess[sec] = rng.Float64() * 4
			}
		}
		if length > 0 {
			sess[length-1] = 2 // the last second: past the sum's end when longer
		}
		templates = append(templates, Template{ID: sqltemplate.ID(rune('A' + i)), Session: timeseries.SparseOf(sess)})
		for sec := 0; sec < n && sec < length; sec++ {
			sum[sec] += sess[sec]
		}
	}
	in := Input{Templates: templates, InstSession: inst}
	opt := DefaultOptions()
	opt.TauC = 2 // never reached: every cluster is summed
	selected, got := selectClusters([]cluster{{members: []int{0, 1}}, {members: []int{2, 3}}}, in, timeseries.NewCorrRef(inst), opt)
	want, _ := timeseries.Corr(sum, inst)
	if selected != 2 || math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("selected %d clusters at cumulative corr %v, want 2 at the dense sum's %v", selected, got, want)
	}
}

// DefaultOptions returns the full PinSQL configuration.
func DefaultOptions() Options {
	return Options{
		Tau:                    DefaultTau,
		TauC:                   DefaultTauC,
		Kc:                     DefaultKc,
		TukeyK:                 DefaultTukeyK,
		UseCumulativeThreshold: true,
		UseHistoryVerification: true,
	}
}
