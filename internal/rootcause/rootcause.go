// Package rootcause implements PinSQL's Root Cause SQL Identification
// Module (§VI). Starting from the H-SQL impact ranking it:
//
//  1. clusters SQL templates by the trend of their #execution series
//     (pairwise Pearson > τ → edge; connected components → business
//     clusters, exploiting the microservice call-DAG correlation of
//     Fig. 4), with performance metrics added as temporary nodes to
//     densify the graph;
//  2. ranks clusters by their best member's impact score
//     (impact(c) = max_{Q∈c} impact(Q));
//  3. selects clusters with the cumulative threshold: keep adding clusters
//     (up to K_c) until the summed session of selected templates
//     correlates with the instance session at ≥ τ_c — so anomalies driven
//     by multiple independent businesses keep all their R-SQLs;
//  4. verifies candidates against history: a true R-SQL's #execution
//     spikes in the anomaly window (Tukey's rule) and did NOT spike in the
//     same window 1/3/7 days ago;
//  5. ranks the survivors by corr(#execution, session).
package rootcause

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pinsql/internal/parallel"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

// Defaults from §VIII-A.
const (
	DefaultTau    = 0.8  // clustering correlation threshold τ
	DefaultTauC   = 0.95 // cumulative threshold τ_c
	DefaultKc     = 5    // max cluster iterations K_c
	DefaultTukeyK = 3.0  // Tukey multiplier for history verification
	// clusterGranularitySec is the downsampling factor applied to
	// #execution series before the O(N²) pairwise correlation, keeping
	// clustering tractable for thousands of templates (the paper
	// aggregates at 1-minute granularity for the same reason).
	clusterGranularitySec = 60
)

// Options tunes the module; the Use* switches exist for the Fig. 6
// ablations.
type Options struct {
	Tau    float64
	TauC   float64
	Kc     int
	TukeyK float64

	// UseCumulativeThreshold=false keeps only the top-1 cluster
	// ("PinSQL w/o Cumulative Threshold").
	UseCumulativeThreshold bool
	// UseHistoryVerification=false skips step 4
	// ("PinSQL w/o History Trend Verification").
	UseHistoryVerification bool

	// Workers bounds the fan-out of the clustering, verification and
	// ranking loops: 1 is the sequential path, <= 0 means GOMAXPROCS.
	// The output is identical for every value (see clusterTemplates).
	Workers int
}

// Template is one SQL template's input to the module.
type Template struct {
	ID      sqltemplate.ID
	Exec    timeseries.Series // #execution per second over [ts, te)
	Session timeseries.Sparse // estimated individual active session
	Impact  float64           // H-SQL impact score (or a baseline's score)
}

// HistoryWindow carries #execution series of the same-length window Nd days
// ago. Templates absent from a window are treated as new SQLs.
type HistoryWindow struct {
	DaysAgo int
	Counts  map[sqltemplate.ID]timeseries.Series
}

// Input bundles everything the module needs for one anomaly case.
type Input struct {
	Templates   []Template
	Metrics     map[string]timeseries.Series // temporary clustering nodes
	InstSession timeseries.Series            // instance active session over [ts, te)
	AS, AE      int                          // anomaly window [as, ae) in seconds
	History     []HistoryWindow
}

// Candidate is one ranked R-SQL.
type Candidate struct {
	ID       sqltemplate.ID
	Score    float64 // corr(#execution, session)
	Cluster  int     // index into Result.Clusters
	Verified bool    // passed history trend verification
}

// Result is the module's full output, exposing intermediate structure for
// diagnostics and the experiment harness.
type Result struct {
	// Clusters lists template IDs per connected component, ordered by
	// descending cluster impact.
	Clusters [][]sqltemplate.ID
	// ClusterImpact[i] is max impact of Clusters[i].
	ClusterImpact []float64
	// Selected is the number of leading clusters chosen by the
	// cumulative threshold.
	Selected int
	// CumulativeCorr is corr(Σ selected sessions, instance session) at
	// the point the iteration stopped.
	CumulativeCorr float64
	// Ranked is the final R-SQL ranking, best first.
	Ranked []Candidate

	// PairsScanned and MulAdds are the work the τ-graph's pair scan did:
	// node pairs it scored or abandoned, and multiply-adds it spent on
	// them pair by pair, the same on every CPU: the checkpoint's for every
	// pair, the rest for one that passed it (the full triangle would spend
	// pairs × vector length).
	PairsScanned int64
	MulAdds      int64

	// ClusterDur and VerifyDur split the module's run time into the
	// clustering+filtering and history-verification+ranking stages, for
	// the §VIII-B timing breakdown. ClusterDur is Identify's share; whoever
	// computed the partition adds its time.
	ClusterDur time.Duration
	VerifyDur  time.Duration
}

// Partition is step 1 of the module: the connected components of the
// τ-graph over templates' #execution series and the metric temp nodes. It
// depends on nothing of a case — not the anomaly interval, not the impact
// scores, not the history — so the cases of one frame share one. A
// Partition is read-only after NewPartition and safe to share.
type Partition struct {
	// components lists member template indexes (ascending) per connected
	// component, components ordered by smallest member.
	components [][]int
	templates  int

	pairs, mulAdds int64
}

// NewPartition clusters templates by their #execution series exec (one
// per template, in the order of the Input.Templates later identified on
// it), with metrics as temporary nodes, at threshold tau. The partition is
// identical for every worker count (see clusterTemplates).
func NewPartition(exec []timeseries.Series, metrics map[string]timeseries.Series, tau float64, workers int) *Partition {
	p := &Partition{templates: len(exec)}
	p.components, p.pairs, p.mulAdds = clusterTemplates(exec, metrics, tau, workers)
	return p
}

// Identify runs steps 2–5 of the module for one case on the partition:
// cluster impact order, cumulative threshold, history verification and
// the final ranking. in.Templates must be the templates the partition was
// built over, in the same order; in.Metrics and opt.Tau were the
// partition's inputs and are not read again.
func (p *Partition) Identify(in Input, opt Options) *Result {
	if len(in.Templates) != p.templates {
		panic(fmt.Sprintf("rootcause: a partition of %d templates used on a case of %d", p.templates, len(in.Templates)))
	}
	res := &Result{PairsScanned: p.pairs, MulAdds: p.mulAdds}
	if len(in.Templates) == 0 {
		return res
	}
	stageStart := time.Now()

	clusters := make([]cluster, len(p.components))
	for i, members := range p.components {
		clusters[i].members = members
	}
	orderClustersByImpact(clusters, in.Templates)
	for _, c := range clusters {
		ids := make([]sqltemplate.ID, len(c.members))
		for i, m := range c.members {
			ids[i] = in.Templates[m].ID
		}
		res.Clusters = append(res.Clusters, ids)
		res.ClusterImpact = append(res.ClusterImpact, c.impact)
	}

	inst := timeseries.NewCorrRef(in.InstSession)
	res.Selected, res.CumulativeCorr = selectClusters(clusters, in, inst, opt)

	// Candidate pool: members of the selected clusters.
	var pool []int
	for _, c := range clusters[:res.Selected] {
		pool = append(pool, c.members...)
	}
	res.ClusterDur = time.Since(stageStart)
	stageStart = time.Now()

	verified := make([]bool, len(in.Templates))
	if opt.UseHistoryVerification {
		kept := verifyAll(in, pool, opt, verified)
		if len(kept) == 0 {
			// Every selected candidate failed verification: the chosen
			// clusters held only affected statements (victims), not the
			// cause. Widen the search to every cluster — the R-SQL's own
			// cluster may have ranked below the victims' when the
			// business bridge was too weak to join them.
			all := make([]int, len(in.Templates))
			for idx := range all {
				all[idx] = idx
			}
			kept = verifyAll(in, all, opt, verified)
		}
		// A still-empty pool would leave the DBA empty-handed; fall back
		// to the unverified selection (rare, mostly when the anomaly
		// window clips the trace boundary).
		if len(kept) > 0 {
			pool = kept
		}
	}

	clusterOf := make([]int, len(in.Templates))
	for ci, c := range clusters {
		for _, m := range c.members {
			clusterOf[m] = ci
		}
	}
	// Final ranking scores, fanned out per candidate; Ranked is assembled
	// sequentially in pool order so the stable sort sees the same input
	// for every worker count.
	scores := make([]float64, len(pool))
	parallel.ForEach(opt.Workers, len(pool), func(i int) {
		scores[i], _ = inst.Corr(in.Templates[pool[i]].Exec)
	})
	for i, idx := range pool {
		res.Ranked = append(res.Ranked, Candidate{
			ID:       in.Templates[idx].ID,
			Score:    scores[i],
			Cluster:  clusterOf[idx],
			Verified: verified[idx],
		})
	}
	slices.SortStableFunc(res.Ranked, func(a, b Candidate) int { return descending(a.Score, b.Score) })
	res.VerifyDur = time.Since(stageStart)
	return res
}

// cluster is an internal connected component.
type cluster struct {
	members []int // template indexes
	impact  float64
}

// verifyAll runs history verification over the candidate indexes, fanning
// the Tukey checks across workers into an index-ordered verdict slice, and
// returns the surviving indexes in input order (marking them in verified).
func verifyAll(in Input, candidates []int, opt Options, verified []bool) []int {
	verdicts := make([]bool, len(candidates))
	parallel.ForEach(opt.Workers, len(candidates), func(i int) {
		verdicts[i] = verifyHistory(in, candidates[i], opt.TukeyK)
	})
	var kept []int
	for i, ok := range verdicts {
		if ok {
			verified[candidates[i]] = true
			kept = append(kept, candidates[i])
		}
	}
	return kept
}

// pairScanBlock is the number of graph rows whose τ-edges are
// materialized per round of clusterTemplates, bounding edge memory by
// pairScanBlock·n instead of the full n²/2 triangle.
const pairScanBlock = 256

// clusterTemplates builds the correlation graph over templates (their
// #execution series exec) plus metric temp nodes and returns its connected
// components (templates only), with the pair scan's work counters.
//
// The pairwise-Pearson scan over the upper triangle is the O(n²) heart of
// the Fig. 7 scalability curve. Rows are scanned a block at a time, each
// row's τ-edges collected by pairScan.rowEdges into a list the row owns
// (fanned across the pool when workers > 1), and the union-find consumes
// the lists strictly in (i, j) order. Every pair's verdict is a pure
// function of its two vectors, a union of already-connected nodes is a
// no-op, and component enumeration orders clusters by smallest member
// index, so the resulting partition — and every downstream ranking — is
// identical for every worker count.
func clusterTemplates(exec []timeseries.Series, metrics map[string]timeseries.Series, tau float64, workers int) (components [][]int, pairs, mulAdds int64) {
	nT := len(exec)
	metricNames := make([]string, 0, len(metrics))
	for name := range metrics {
		metricNames = append(metricNames, name)
	}
	sort.Strings(metricNames)
	n := nT + len(metricNames)
	series := func(i int) timeseries.Series {
		if i < nT {
			return exec[i]
		}
		return metrics[metricNames[i-nT]]
	}
	// Standardize each node's per-minute vector once, through a scratch
	// vector per chunk of nodes: corr(a, b) is then a dot product per pair.
	scan := newPairScan(n, func(c int) int { return minutes(len(series(c))) }, tau)
	alive := make([]bool, n)
	parallel.Blocks(workers, n, func(lo, hi int) {
		var buf []float64
		for i := lo; i < hi; i++ {
			buf = perMinute(buf, series(i))
			if v := standardize(buf); v != nil {
				alive[i] = true
				scan.set(i, v)
			}
		}
	})
	live := scan.compact(alive)

	uf := newUnionFind(n)
	edges := make([][]int32, pairScanBlock)
	work := make([]int64, pairScanBlock)
	for blockLo := 0; blockLo < len(live); blockLo += pairScanBlock {
		rows := min(pairScanBlock, len(live)-blockLo)
		parallel.ForEach(workers, rows, func(r int) {
			edges[r], work[r] = scan.rowEdges(blockLo+r, edges[r][:0])
		})
		for r := 0; r < rows; r++ {
			for _, c := range edges[r] {
				uf.union(live[blockLo+r], live[c])
			}
			mulAdds += work[r]
		}
	}
	pairs = int64(len(live)) * int64(len(live)-1) / 2

	// Collect components; only template nodes (index < nT) become cluster
	// members — the metric temp nodes are filtered here, as in the paper.
	seen := make([]int, n) // component index + 1 by union-find root
	for i := 0; i < nT; i++ {
		root := uf.find(i)
		if seen[root] == 0 {
			components = append(components, nil)
			seen[root] = len(components)
		}
		ci := seen[root] - 1
		components[ci] = append(components[ci], i)
	}
	return components, pairs, mulAdds
}

// descending orders x before y when x > y and leaves two that compare
// neither way — ties, a NaN — in their order. The stable sort reads only
// cmp < 0, so it orders as sort.SliceStable does with x > y as its less.
func descending(x, y float64) int {
	switch {
	case x > y:
		return -1
	case y > x:
		return 1
	}
	return 0
}

// orderClustersByImpact computes each cluster's impact and sorts descending.
func orderClustersByImpact(clusters []cluster, templates []Template) {
	for i := range clusters {
		best := templates[clusters[i].members[0]].Impact
		for _, m := range clusters[i].members[1:] {
			if templates[m].Impact > best {
				best = templates[m].Impact
			}
		}
		clusters[i].impact = best
	}
	slices.SortStableFunc(clusters, func(a, b cluster) int { return descending(a.impact, b.impact) })
}

// selectClusters applies the cumulative threshold (§VI): iterate clusters
// in impact order, summing member sessions, until the sum correlates with
// the instance session at ≥ τ_c or K_c clusters are taken. inst is the
// case's prepared instance session.
func selectClusters(clusters []cluster, in Input, inst *timeseries.CorrRef, opt Options) (selected int, cumCorr float64) {
	if len(clusters) == 0 {
		return 0, 0
	}
	if !opt.UseCumulativeThreshold {
		return 1, 0
	}
	kc := opt.Kc
	if kc <= 0 {
		kc = DefaultKc
	}
	if kc > len(clusters) {
		kc = len(clusters)
	}
	sum := make(timeseries.Series, len(in.InstSession))
	for i := 0; i < kc; i++ {
		for _, m := range clusters[i].members {
			in.Templates[m].Session.AddTo(sum)
		}
		cumCorr, _ = inst.Corr(sum)
		if cumCorr >= opt.TauC {
			return i + 1, cumCorr
		}
	}
	return kc, cumCorr
}

// verifyHistory applies the paper's two rules to one template: (i) the
// #execution abruptly increased in the anomaly window now, and (ii) it did
// not in the corresponding window of any history trace. Templates missing
// from a history window are new SQLs and pass that window.
//
// "Abruptly increased" is judged with Tukey fences computed from the
// pre-anomaly baseline [0, as): using the whole trace would let a
// sustained plateau inflate its own fences and hide itself (a brand-new
// statement elevated for a third of the window would otherwise never be an
// outlier of its own distribution).
func verifyHistory(in Input, idx int, tukeyK float64) bool {
	if tukeyK <= 0 {
		tukeyK = DefaultTukeyK
	}
	t := in.Templates[idx]
	if !windowAbruptlyUp(t.Exec, in.AS, in.AE, tukeyK) {
		return false
	}
	for _, hw := range in.History {
		hist, ok := hw.Counts[t.ID]
		if !ok {
			continue // new SQL: nothing to compare against
		}
		if windowAbruptlyUp(hist, in.AS, in.AE, tukeyK) {
			return false
		}
	}
	return true
}

// windowAbruptlyUp reports whether the window mean of s exceeds the upper
// Tukey fence of the pre-window baseline.
func windowAbruptlyUp(s timeseries.Series, as, ae int, k float64) bool {
	base := s.Slice(0, as)
	if len(base) < 10 {
		base = s // degenerate window placement: whole-series fences
	}
	_, hi := base.TukeyBounds(k)
	win := s.Slice(as, ae)
	return len(win) > 0 && win.Mean() > hi
}
