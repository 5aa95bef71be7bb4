package rootcause

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

// scanEdges runs one scan over cols row by row and returns every row's edge
// list and the multiply-adds spent.
func scanEdges(cols [][]float64, rowEdges func(r int, edges []int32) ([]int32, int64)) ([][]int32, int64) {
	lists := make([][]int32, len(cols))
	var mulAdds int64
	for r := range cols {
		var w int64
		lists[r], w = rowEdges(r, nil)
		mulAdds += w
	}
	return lists, mulAdds
}

// checkPrunedScan holds the pruned scan to the full scan's edge lists on
// cols, for every τ the tests name.
func checkPrunedScan(t *testing.T, label string, cols [][]float64, taus ...float64) {
	t.Helper()
	for _, tau := range taus {
		ps := newPairScan(cols, tau)
		got, _ := scanEdges(cols, ps.rowEdges)
		want, _ := scanEdges(cols, func(r int, e []int32) ([]int32, int64) { return fullRowEdges(cols, r, tau, e) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s, τ=%v: pruned scan's edges %v, full scan's %v", label, tau, got, want)
		}
	}
}

// noiseColumns draws n standardized columns of the given length the way the
// wide case's are distributed: #execution per minute of steady traffic,
// noise around a level, so pairwise correlations spread around zero.
func noiseColumns(rng *rand.Rand, n, length int) [][]float64 {
	cols := make([][]float64, n)
	for c := range cols {
		s := make(timeseries.Series, length)
		for i := range s {
			s[i] = 100 + rng.NormFloat64()*10
		}
		cols[c] = standardize(s)
	}
	return cols
}

// unitOrthogonal returns two orthogonal unit vectors of the given length.
func unitOrthogonal(rng *rand.Rand, length int) (a, c []float64) {
	a, c = make([]float64, length), make([]float64, length)
	var na, ac float64
	for i := range a {
		a[i], c[i] = rng.NormFloat64(), rng.NormFloat64()
		na += a[i] * a[i]
	}
	for i := range a {
		a[i] /= math.Sqrt(na)
		ac += a[i] * c[i]
	}
	var nc float64
	for i := range c {
		c[i] -= ac * a[i]
		nc += c[i] * c[i]
	}
	for i := range c {
		c[i] /= math.Sqrt(nc)
	}
	return a, c
}

var scanTaus = []float64{-1, 0, DefaultTau, 1}

// TestPrunedScanMatchesFullScan: abandoning pairs at the checkpoint never
// changes an edge list. Random columns, related and unrelated, at every τ;
// then the inputs built against the pruning itself.
func TestPrunedScanMatchesFullScan(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		length := pruneMinLen + rng.Intn(40)
		cols := noiseColumns(rng, 5+rng.Intn(40), length)
		// A few columns that follow another one closely: real edges.
		for k := 0; k < len(cols)/4; k++ {
			src := cols[rng.Intn(len(cols))]
			s := make(timeseries.Series, length)
			for i := range s {
				s[i] = src[i] + rng.NormFloat64()*0.05*float64(1+rng.Intn(8))
			}
			cols[rng.Intn(len(cols))] = standardize(s)
		}
		checkPrunedScan(t, fmt.Sprintf("seed %d", seed), cols, scanTaus...)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}

	rng := rand.New(rand.NewSource(16))

	// Pairs that sit within 1e-12 of τ, on either side, some of them with
	// the two tails parallel, where the Cauchy–Schwarz bound is the score
	// itself and only the slack keeps rounding from abandoning an edge.
	for _, tau := range []float64{0, DefaultTau, 1} {
		for trial := 0; trial < 40; trial++ {
			const length = 35
			a, c := unitOrthogonal(rng, length)
			if trial%2 == 0 {
				// b's tail becomes a multiple of a's: c lives in the head only.
				k := length * 9 / 20
				var nc float64
				for i := range c {
					if i >= k {
						c[i] = 0
					}
					nc += c[i] * c[i]
				}
				var ac float64
				for i := range c {
					c[i] /= math.Sqrt(nc)
					ac += a[i] * c[i]
				}
				// Re-orthogonalize inside the head.
				var na float64
				for i := 0; i < k; i++ {
					na += a[i] * a[i]
				}
				nc = 0
				for i := 0; i < k; i++ {
					c[i] -= ac / na * a[i]
					nc += c[i] * c[i]
				}
				for i := 0; i < k; i++ {
					c[i] /= math.Sqrt(nc)
				}
			}
			cols := [][]float64{a}
			for _, delta := range []float64{-1e-12, -1e-15, 0, 1e-15, 1e-12} {
				target := math.Min(tau+delta, 1)
				b := make([]float64, length)
				for i := range b {
					b[i] = target*a[i] + math.Sqrt(1-target*target)*c[i]
				}
				cols = append(cols, b)
			}
			cols = append(cols, noiseColumns(rng, 3, length)...)
			checkPrunedScan(t, fmt.Sprintf("near τ trial %d", trial), cols, tau)
		}
	}

	// Columns of unequal length, shorter and longer than the row, in every
	// position of a quad.
	for trial := 0; trial < 20; trial++ {
		cols := noiseColumns(rng, 9+rng.Intn(8), 40)
		for c := range cols {
			if rng.Intn(3) == 0 {
				cols[c] = cols[c][:20+rng.Intn(20)]
			}
		}
		cols = append(cols, cols[0][:25], cols[1])
		checkPrunedScan(t, fmt.Sprintf("ragged trial %d", trial), cols, scanTaus...)
	}

	// All columns equal: every pair scores the same, at or beside 1.
	same := noiseColumns(rng, 1, 35)[0]
	equal := make([][]float64, 11)
	for c := range equal {
		equal[c] = same
	}
	checkPrunedScan(t, "all equal", equal, scanTaus...)

	// One live column, none, and columns too short to have a checkpoint.
	checkPrunedScan(t, "one column", [][]float64{same}, scanTaus...)
	checkPrunedScan(t, "no column", nil, scanTaus...)
	checkPrunedScan(t, "short columns", noiseColumns(rng, 13, pruneMinLen-1), scanTaus...)

	// Columns that are not what standardize returns: all-zero (a norm that
	// overflowed), NaN inside, and a NaN threshold.
	odd := noiseColumns(rng, 10, 35)
	odd[2] = make([]float64, 35)
	odd[5] = append([]float64(nil), odd[5]...)
	odd[5][30] = math.NaN()
	odd[7] = append([]float64(nil), odd[7]...)
	odd[7][3] = math.NaN()
	checkPrunedScan(t, "zero and NaN columns", odd, append([]float64{math.NaN()}, scanTaus...)...)
}

// TestClusterTemplatesDegenerateInputs: the partition of inputs with no
// pair to scan.
func TestClusterTemplatesDegenerateInputs(t *testing.T) {
	flat := make(timeseries.Series, 600)
	live := make(timeseries.Series, 600)
	for i := range flat {
		flat[i], live[i] = 7, float64(i%97)
	}
	for _, tau := range scanTaus {
		comps, pairs, mulAdds := clusterTemplates([]timeseries.Series{flat, flat, flat}, nil, tau, 1)
		if !reflect.DeepEqual(comps, [][]int{{0}, {1}, {2}}) || pairs != 0 || mulAdds != 0 {
			t.Errorf("τ=%v, constant series only: components %v after %d pairs, %d multiply-adds", tau, comps, pairs, mulAdds)
		}
		comps, pairs, mulAdds = clusterTemplates([]timeseries.Series{flat, live, flat}, nil, tau, 1)
		if !reflect.DeepEqual(comps, [][]int{{0}, {1}, {2}}) || pairs != 0 || mulAdds != 0 {
			t.Errorf("τ=%v, one live series: components %v after %d pairs, %d multiply-adds", tau, comps, pairs, mulAdds)
		}
	}
}

// TestPairScanWorkBudget is a budget of work, not of time: on 600 columns
// drawn like the wide case's the scan spends at most half the multiply-adds
// of the full triangle — which is what the scan it replaced spends.
func TestPairScanWorkBudget(t *testing.T) {
	const n, length = 600, 35
	cols := noiseColumns(rand.New(rand.NewSource(3)), n, length)
	triangle := int64(n * (n - 1) / 2 * length)

	_, full := scanEdges(cols, func(r int, e []int32) ([]int32, int64) { return fullRowEdges(cols, r, DefaultTau, e) })
	if full != triangle {
		t.Fatalf("the full scan spent %d multiply-adds, the triangle has %d", full, triangle)
	}
	_, pruned := scanEdges(cols, newPairScan(cols, DefaultTau).rowEdges)
	if 2*pruned > triangle {
		t.Errorf("the pruned scan spent %d multiply-adds, more than half of the triangle's %d", pruned, triangle)
	}

	// The counters a Result carries are the scan's.
	exec := make([]timeseries.Series, 40)
	rng := rand.New(rand.NewSource(4))
	templates := make([]Template, len(exec))
	for i := range exec {
		exec[i] = make(timeseries.Series, 2100)
		for j := range exec[i] {
			exec[i][j] = 50 + rng.NormFloat64()*5
		}
		templates[i] = Template{ID: sqltemplate.ID(fmt.Sprintf("T%02d", i)), Exec: exec[i], Session: timeseries.Sparse{N: 2100}}
	}
	res := Identify(Input{Templates: templates, InstSession: make(timeseries.Series, 2100), AS: 1700, AE: 2000}, DefaultOptions())
	if want := int64(40 * 39 / 2); res.PairsScanned != want || res.MulAdds <= 0 || res.MulAdds > want*length {
		t.Errorf("Result counts %d pairs and %d multiply-adds, want %d pairs and at most %d", res.PairsScanned, res.MulAdds, want, want*length)
	}
}

// TestIdentifyWidensVerificationPastVictimOnlyClusters pins the branch that
// §VI does not have and this implementation adds: when every template of
// the clusters the cumulative threshold selected fails History Trend
// Verification — the top-impact cluster held only victims — verification
// widens to every template of the window, and the R-SQL is ranked out of a
// cluster the threshold did not select (Cluster >= Selected).
func TestIdentifyWidensVerificationPastVictimOnlyClusters(t *testing.T) {
	in := buildPoorSQLCase(rand.New(rand.NewSource(11)))
	// The victim outranks the cause by impact, and its session alone
	// follows the instance's closely enough to satisfy τ_c: one cluster
	// selected, and it is the victim's.
	for i := range in.Templates {
		if in.Templates[i].ID == "VICTIM" {
			in.Templates[i].Impact = 3
		}
	}
	res := Identify(in, DefaultOptions())
	if res.Selected != 1 || len(res.Clusters[0]) != 1 || res.Clusters[0][0] != "VICTIM" {
		t.Fatalf("selected %d clusters, the first %v; the fixture wants the victim's alone", res.Selected, res.Clusters[0])
	}
	if len(res.Ranked) != 1 || res.Ranked[0].ID != "RSQL" || !res.Ranked[0].Verified {
		t.Fatalf("ranked %+v, want the verified RSQL alone", res.Ranked)
	}
	if res.Ranked[0].Cluster < res.Selected {
		t.Errorf("RSQL ranked out of cluster %d of %d selected: verification did not widen", res.Ranked[0].Cluster, res.Selected)
	}
	if got := res.Clusters[res.Ranked[0].Cluster]; len(got) != 1 || got[0] != "RSQL" {
		t.Errorf("Candidate.Cluster %d names %v, not RSQL's cluster", res.Ranked[0].Cluster, got)
	}

	// With the paper's steps alone — no verification — the selection stands
	// and the victim is what the module returns.
	opt := DefaultOptions()
	opt.UseHistoryVerification = false
	if res := Identify(in, opt); len(res.Ranked) != 1 || res.Ranked[0].ID != "VICTIM" {
		t.Errorf("without verification ranked %+v, want the selected victim", res.Ranked)
	}
}

// TestPartitionIsReadOnlyAcrossCases: the cases of a frame share one
// Partition, so Identify may order and select its clusters only on a copy.
// After cases whose impacts order the clusters in opposite ways the
// partition holds what NewPartition left, and each case's result is what a
// one-case Identify returns.
func TestPartitionIsReadOnlyAcrossCases(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		opt := DefaultOptions()
		p := NewPartition(execOf(in), in.Metrics, opt.Tau, 1)
		before := make([][]int, len(p.components))
		for i, members := range p.components {
			before[i] = append([]int(nil), members...)
		}
		for round := 0; round < 3; round++ {
			for i := range in.Templates {
				in.Templates[i].Impact = rng.NormFloat64()
			}
			in.AS, in.AE = in.AS+round*7, in.AE+round*7
			shared, alone := stripDurations(p.Identify(in, opt)), stripDurations(Identify(in, opt))
			if !reflect.DeepEqual(shared, alone) {
				t.Logf("seed %d round %d: on the shared partition %+v, alone %+v", seed, round, shared, alone)
				return false
			}
			if !reflect.DeepEqual(p.components, before) {
				t.Logf("seed %d round %d: Identify changed the partition", seed, round)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
