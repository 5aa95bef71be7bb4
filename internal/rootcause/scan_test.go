package rootcause

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pinsql/internal/cpufeat"
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

// scanOf lays cols out for the pair scan as clusterTemplates does, every
// column live, and takes the kernel path or the Go one.
func scanOf(cols [][]float64, tau float64, kernel bool) *pairScan {
	ps := newPairScan(len(cols), func(c int) int { return len(cols[c]) }, tau)
	alive := make([]bool, len(cols))
	for c, v := range cols {
		ps.set(c, v)
		alive[c] = true
	}
	ps.compact(alive)
	ps.kernel = kernel
	return ps
}

// checkPrunedScan holds the pruned scan, on the kernel path or the Go one,
// to the full scan's edge lists on cols, for every τ the tests name.
func checkPrunedScan(t *testing.T, kernel bool, label string, cols [][]float64, taus ...float64) {
	t.Helper()
	for _, tau := range taus {
		got, _ := scanEdges(cols, scanOf(cols, tau, kernel).rowEdges)
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
// changes an edge list, on the kernel path or the Go one. Random columns,
// related and unrelated, at every τ; then the inputs built against the
// pruning itself.
func TestPrunedScanMatchesFullScan(t *testing.T) {
	for _, kernel := range []bool{false, true} {
		t.Run(map[bool]string{false: "go", true: "kernel"}[kernel], func(t *testing.T) {
			if kernel && !cpufeat.AVX {
				t.Skip("the CPU lacks AVX or the OS does not save its registers: only the Go path runs here")
			}
			prunedScanCases(t, kernel)
		})
	}
}

func prunedScanCases(t *testing.T, kernel bool) {
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
		checkPrunedScan(t, kernel, fmt.Sprintf("seed %d", seed), cols, scanTaus...)
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
			checkPrunedScan(t, kernel, fmt.Sprintf("near τ trial %d", trial), cols, tau)
		}
	}

	// Columns of unequal length, shorter and longer than the row, anywhere.
	for trial := 0; trial < 20; trial++ {
		cols := noiseColumns(rng, 9+rng.Intn(8), 40)
		for c := range cols {
			if rng.Intn(3) == 0 {
				cols[c] = cols[c][:20+rng.Intn(20)]
			}
		}
		cols = append(cols, cols[0][:25], cols[1])
		checkPrunedScan(t, kernel, fmt.Sprintf("ragged trial %d", trial), cols, scanTaus...)
	}

	// All columns equal: every pair scores the same, at or beside 1.
	same := noiseColumns(rng, 1, 35)[0]
	equal := make([][]float64, 11)
	for c := range equal {
		equal[c] = same
	}
	checkPrunedScan(t, kernel, "all equal", equal, scanTaus...)

	// One live column, none, and columns too short to have a checkpoint.
	checkPrunedScan(t, kernel, "one column", [][]float64{same}, scanTaus...)
	checkPrunedScan(t, kernel, "no column", nil, scanTaus...)
	checkPrunedScan(t, kernel, "short columns", noiseColumns(rng, 13, pruneMinLen-1), scanTaus...)

	// Columns that are not what standardize returns: all-zero (a norm that
	// overflowed), NaN inside, and a NaN threshold.
	odd := noiseColumns(rng, 10, 35)
	odd[2] = make([]float64, 35)
	odd[5] = append([]float64(nil), odd[5]...)
	odd[5][30] = math.NaN()
	odd[7] = append([]float64(nil), odd[7]...)
	odd[7][3] = math.NaN()
	checkPrunedScan(t, kernel, "zero and NaN columns", odd, append([]float64{math.NaN()}, scanTaus...)...)
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
// of the full triangle — which is what the scan it replaced spends — and
// the kernel path, counted per pair as the Go path is, no more than the Go
// path, on the same edges.
func TestPairScanWorkBudget(t *testing.T) {
	const n, length = 600, 35
	cols := noiseColumns(rand.New(rand.NewSource(3)), n, length)
	triangle := int64(n * (n - 1) / 2 * length)

	_, full := scanEdges(cols, func(r int, e []int32) ([]int32, int64) { return fullRowEdges(cols, r, DefaultTau, e) })
	if full != triangle {
		t.Fatalf("the full scan spent %d multiply-adds, the triangle has %d", full, triangle)
	}
	goEdges, pruned := scanEdges(cols, scanOf(cols, DefaultTau, false).rowEdges)
	if 2*pruned > triangle {
		t.Errorf("the pruned scan spent %d multiply-adds, more than half of the triangle's %d", pruned, triangle)
	}
	if !cpufeat.AVX {
		t.Log("the CPU lacks AVX or the OS does not save its registers: no kernel path to count")
	} else if kernelEdges, kernel := scanEdges(cols, scanOf(cols, DefaultTau, true).rowEdges); kernel > pruned || !reflect.DeepEqual(kernelEdges, goEdges) {
		t.Errorf("the kernel path spent %d multiply-adds to the Go path's %d, or found other edges", kernel, pruned)
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

// FuzzPanelScan holds panelPrefix16 to prefix16, its Go oracle: for every
// row and every sixteen columns the row is scored against, the same sixteen
// prefix sums, bit for bit, and the same survivor bits. A NaN equals any
// NaN: of two NaN operands x86 returns the first one's payload, and which
// operand comes first in Go's code is the compiler's choice. The input's bytes
// are the values — columns, tails, the row's reach and the floor; the seeds
// hold NaN, ±Inf, −0 and subnormals — and pick the column count (any, not
// only multiples of 4 or 16; every row is scanned, the last ones included),
// the length and the checkpoint.
func FuzzPanelScan(f *testing.F) {
	if !cpufeat.AVX {
		f.Skip("the CPU lacks AVX or the OS does not save its registers: no kernel to hold to its oracle")
	}
	encode := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(17), uint8(35), uint8(15), encode(0.3, -0.7, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -2.2e-308, 0.8))
	f.Add(uint8(4), uint8(1), uint8(0), encode(1, -1))
	f.Add(uint8(33), uint8(12), uint8(11), encode(1e308, -1e308, 1e-310, 0.5, 0.25))
	// Finite values whose products round: a fused multiply-add differs.
	f.Add(uint8(21), uint8(35), uint8(15), encode(0.1, 1.0/3, -0.7, 2.0/7, 0.123456789, -1.0/9, 0.3))
	f.Fuzz(func(t *testing.T, cols, length, checkpoint uint8, data []byte) {
		vals := []float64{0.5, -0.25}
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		next := 0
		value := func() float64 {
			next++
			return vals[next%len(vals)]
		}
		n, L := 1+int(cols)%70, 1+int(length)%40
		ps := newPairScan(n, func(int) int { return L }, value())
		alive := make([]bool, n)
		for c := range alive {
			v := make([]float64, L)
			for i := range v {
				v[i] = value()
			}
			ps.set(c, v)
			alive[c] = true
		}
		ps.compact(alive)
		ps.checkpoint = 1 + int(checkpoint)%L
		ps.tails = make([]float64, len(ps.panel)/L)
		for c := 0; c < n; c++ {
			ps.tails[c] = value()
		}
		for r := 0; r < n; r++ {
			row, reach, floor := ps.column(r), value(), value()
			for c0 := (r + 1) &^ 3; c0 < n; c0 += 16 {
				var got, want [16]float64
				gotMask := panelPrefix16(&row[0], &ps.panel[c0*L], L, ps.checkpoint, &ps.tails[c0], reach, floor, &got)
				wantMask := ps.prefix16(row, c0, reach, floor, &want)
				if gotMask != wantMask {
					t.Fatalf("n=%d length=%d checkpoint=%d row %d columns %d…: kernel survivors %016b, Go %016b", n, L, ps.checkpoint, r, c0, gotMask, wantMask)
				}
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) && !(math.IsNaN(got[j]) && math.IsNaN(want[j])) {
						t.Fatalf("n=%d length=%d checkpoint=%d row %d column %d: kernel sum %v (%#x), Go %v (%#x)", n, L, ps.checkpoint, r, c0+j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
					}
				}
			}
		}
	})
}

// TestPartialMinuteKeepsUnrelatedApart: 300 templates of independent
// Poisson counts have no business in common, whatever the window's length.
// A trailing partial minute summed as a short minute of its own dips in
// every series at once and correlates them all; folded into the last full
// minute it does not.
func TestPartialMinuteKeepsUnrelatedApart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	poisson := func(lambda float64) float64 {
		k, p, limit := 0.0, rng.Float64(), math.Exp(-lambda)
		for ; p > limit; p *= rng.Float64() {
			k++
		}
		return k
	}
	for _, seconds := range []int{1200, 1230, 1215, 1201} {
		exec := make([]timeseries.Series, 300)
		for i := range exec {
			lambda := 1 + 9*rng.Float64()
			exec[i] = make(timeseries.Series, seconds)
			for s := range exec[i] {
				exec[i][s] = poisson(lambda)
			}
		}
		comps, _, _ := clusterTemplates(exec, nil, DefaultTau, 1)
		largest := 0
		for _, c := range comps {
			largest = max(largest, len(c))
		}
		if largest > 2 {
			t.Errorf("%d s: %d independent templates in one cluster", seconds, largest)
		}
	}
}
