package rootcause

// Workers-equivalence and refactor-equivalence properties for the
// parallelized clustering stage: any worker count must yield the exact
// Result that the sequential path yields, and the precomputed-standardize
// dot-product scan must produce the same connected components as the
// naive per-pair path it replaced.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

// randomInput builds a randomized clustering input: a handful of latent
// "business" signals, each shared (with noise) by a random group of
// templates, so the pair scan sees both strongly correlated groups and
// independent walkers — plus occasional constant series (nil vectors) and
// metric temp nodes.
func randomInput(rng *rand.Rand) Input {
	n := 300 + rng.Intn(600) // seconds; downsampled to 5..15 points
	nT := 1 + rng.Intn(40)
	nSignals := 1 + rng.Intn(4)
	signals := make([]timeseries.Series, nSignals)
	for s := range signals {
		sig := make(timeseries.Series, n)
		v := rng.Float64() * 10
		for i := range sig {
			v += rng.NormFloat64()
			sig[i] = v
		}
		signals[s] = sig
	}

	as := n / 4
	ae := n / 2
	inst := make(timeseries.Series, n)
	templates := make([]Template, nT)
	for t := range templates {
		exec := make(timeseries.Series, n)
		sess := make(timeseries.Series, n)
		switch rng.Intn(5) {
		case 0: // constant: standardizes to nil
			for i := range exec {
				exec[i] = 7
			}
		default:
			sig := signals[rng.Intn(nSignals)]
			noise := 0.1 + rng.Float64()*3
			for i := range exec {
				exec[i] = sig[i] + rng.NormFloat64()*noise
			}
		}
		for i := range sess {
			sess[i] = rng.Float64() * 5
			inst[i] += sess[i]
		}
		templates[t] = Template{
			ID:      sqltemplate.ID(rune('A'+t%26)) + sqltemplate.ID(rune('A'+t/26)),
			Exec:    exec,
			Session: timeseries.SparseOf(sess),
			Impact:  rng.NormFloat64(),
		}
	}

	in := Input{Templates: templates, InstSession: inst, AS: as, AE: ae}
	if rng.Intn(2) == 0 {
		in.Metrics = map[string]timeseries.Series{
			"cpu": signals[0].Clone(),
			"io":  signals[nSignals-1].Clone(),
		}
	}
	if rng.Intn(2) == 0 {
		counts := make(map[sqltemplate.ID]timeseries.Series)
		for _, tpl := range templates {
			if rng.Intn(3) > 0 {
				counts[tpl.ID] = tpl.Exec.Clone()
			}
		}
		in.History = []HistoryWindow{{DaysAgo: 1, Counts: counts}}
	}
	return in
}

// stripDurations zeroes the wall-clock fields so Results can be compared
// structurally.
func stripDurations(r *Result) *Result {
	r.ClusterDur = 0
	r.VerifyDur = 0
	return r
}

// TestIdentifyWorkersEquivalence is the module-level determinism property:
// for random inputs, Identify with any worker count returns exactly the
// sequential result — cluster partition, selection, and final ranking.
func TestIdentifyWorkersEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		in := randomInput(rand.New(rand.NewSource(seed)))
		opt := DefaultOptions()
		opt.Workers = 1
		seq := stripDurations(Identify(in, opt))
		for _, w := range []int{2, 3, 8} {
			opt.Workers = w
			par := stripDurations(Identify(in, opt))
			if !reflect.DeepEqual(seq, par) {
				t.Logf("seed %d: workers=%d diverged\nseq: %+v\npar: %+v", seed, w, seq, par)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// clusterPairwiseRef is the pre-optimization reference: standardize both
// series of every pair on the spot and take the dot product, with no
// already-connected shortcut — the O(n²) per-pair path the precomputed
// scan replaced. Components must match bit-for-bit (standardize is a pure
// function, so per-pair recomputation yields the same vectors).
func clusterPairwiseRef(in Input, tau float64) [][]int {
	nT := len(in.Templates)
	series := make([]timeseries.Series, 0, nT+len(in.Metrics))
	for _, tpl := range in.Templates {
		series = append(series, tpl.Exec)
	}
	for _, name := range sortedMetricNames(in.Metrics) {
		series = append(series, in.Metrics[name])
	}
	uf := newUnionFind(len(series))
	for i := range series {
		for j := i + 1; j < len(series); j++ {
			a := standardize(perMinute(nil, series[i]))
			b := standardize(perMinute(nil, series[j]))
			if a == nil || b == nil {
				continue
			}
			if dot(a, b) > tau {
				uf.union(i, j)
			}
		}
	}
	var comps [][]int
	seen := make(map[int]int)
	for i := 0; i < nT; i++ {
		root := uf.find(i)
		ci, ok := seen[root]
		if !ok {
			ci = len(comps)
			seen[root] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], i)
	}
	return comps
}

// execOf lists the #execution series of in's templates, as Identify hands
// them to NewPartition.
func execOf(in Input) []timeseries.Series {
	exec := make([]timeseries.Series, len(in.Templates))
	for i := range in.Templates {
		exec[i] = in.Templates[i].Exec
	}
	return exec
}

func sortedMetricNames(metrics map[string]timeseries.Series) []string {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ { // tiny insertion sort, test-only
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// kernelInput builds a clustering input aimed at rowEdges' panels of four
// and sixteen-column steps: nT templates following two latent signals, a constant series (a
// nil vector) at every index ≡ constAt (mod 4) when constAt >= 0, and, when
// ragged, series of three different lengths, so a row meets columns both
// shorter and longer than itself.
func kernelInput(rng *rand.Rand, nT, constAt int, ragged bool) Input {
	const n = 600
	signals := [2]timeseries.Series{make(timeseries.Series, n), make(timeseries.Series, n)}
	for _, sig := range signals {
		v := rng.Float64() * 10
		for i := range sig {
			v += rng.NormFloat64()
			sig[i] = v
		}
	}
	templates := make([]Template, nT)
	for t := range templates {
		length := n
		if ragged {
			length = []int{n, 420, 300}[rng.Intn(3)]
		}
		exec := make(timeseries.Series, length)
		sig, noise := signals[rng.Intn(2)], 0.1+rng.Float64()*2
		for i := range exec {
			exec[i] = 7
			if constAt < 0 || t%4 != constAt {
				exec[i] = sig[i] + rng.NormFloat64()*noise
			}
		}
		templates[t] = Template{ID: sqltemplate.ID(rune('A' + t)), Exec: exec}
	}
	return Input{Templates: templates}
}

// TestClusterTemplatesMatchesPairwiseReference checks that the
// precomputed-standardize scan — sequential and sharded alike — produces
// the same connected components as the per-pair reference: on random
// inputs, and on inputs that walk the sixteen-column steps through every
// remainder (n mod 16), a nil vector at every position of a panel of four,
// and unequal-length vectors.
func TestClusterTemplatesMatchesPairwiseReference(t *testing.T) {
	check := func(label string, in Input) bool {
		want := clusterPairwiseRef(in, DefaultTau)
		for _, w := range []int{1, 4} {
			members, _, _ := clusterTemplates(execOf(in), in.Metrics, DefaultTau, w)
			if !reflect.DeepEqual(members, want) {
				t.Errorf("%s workers=%d: components %v, want %v", label, w, members, want)
				return false
			}
		}
		return true
	}
	prop := func(seed int64) bool {
		return check(fmt.Sprintf("seed %d", seed), randomInput(rand.New(rand.NewSource(seed))))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(12))
	for nT := 1; nT <= 35; nT++ {
		for constAt := -1; constAt < 4; constAt++ {
			for _, ragged := range []bool{false, true} {
				check(fmt.Sprintf("nT=%d constAt=%d ragged=%v", nT, constAt, ragged),
					kernelInput(rng, nT, constAt, ragged))
			}
		}
	}
}

// TestClusterTemplatesManyRowsCrossesBlocks forces the sharded scan past
// one pairScanBlock of rows so the block/round logic is exercised, and
// checks it still matches the sequential path.
func TestClusterTemplatesManyRowsCrossesBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 300
	sig := make(timeseries.Series, n)
	for i := range sig {
		sig[i] = float64(i%60) + rng.NormFloat64()
	}
	templates := make([]Template, pairScanBlock+40)
	for t := range templates {
		exec := make(timeseries.Series, n)
		for i := range exec {
			exec[i] = sig[i] + rng.NormFloat64()*float64(1+t%7)
		}
		templates[t] = Template{ID: sqltemplate.ID(rune(t)), Exec: exec}
	}
	in := Input{Templates: templates}
	seq, _, seqWork := clusterTemplates(execOf(in), nil, DefaultTau, 1)
	par, _, parWork := clusterTemplates(execOf(in), nil, DefaultTau, 4)
	if !reflect.DeepEqual(seq, par) || seqWork != parWork {
		t.Errorf("sharded scan diverged across %d rows: %d vs %d clusters", len(templates), len(seq), len(par))
	}
}
