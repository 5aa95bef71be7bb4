// Package fuzz is the adversarial workload search: a deterministic,
// seed-driven loop that samples injection parameter vectors from a bandit
// over parameter-region arms, generates each case through the real
// simulate→collect→detect pipeline, diagnoses it with core.DiagnoseFrame,
// and scores the diagnosis against the case's ground truth. Cases the
// pipeline misranks (true R-SQL not at rank 1 — the paper's Hits@1) are
// minimized to a smaller still-failing vector and written out as
// self-contained repro bundles.
//
// Everything observable — the sampled case sequence, scores, bandit
// trajectory, minimized vectors, the digest — is a pure function of
// Options. No wall clock or global RNG feeds the search; Workers only
// changes how fast rounds evaluate, never what they contain.
package fuzz

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"pinsql/internal/caseio"
	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/parallel"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/workload"
)

// Options configures one search run. The zero value is not runnable; use
// DefaultOptions or fill Seed/Budget explicitly.
type Options struct {
	Seed   int64
	Budget int // total cases to generate and diagnose

	// RoundSize cases are sampled per bandit round: the bandit picks the
	// whole round up front, the round evaluates (possibly in parallel),
	// then rewards apply in case order. The round size is part of the
	// trajectory, so it is a fixed option — never derived from the host.
	RoundSize int

	// Workers bounds concurrent case evaluation inside a round; results
	// are consumed in order, so any value yields the same run.
	Workers int

	Epsilon  float64 // bandit exploration rate
	TraceSec int     // trace horizon of every generated case
	Cores    int     // simulated instance cores; 0 → dbsim default

	// HistoryDays are the history-window offsets of generated cases.
	HistoryDays []int

	// MinimizeProbes caps the generator probes spent shrinking one miss.
	MinimizeProbes int
	// MaxRepros caps how many misses are minimized and recorded.
	MaxRepros int

	// CorpusDir, when set, receives one bundle directory per recorded
	// miss. Empty means record in-memory only (the replay self-check
	// still runs).
	CorpusDir string
}

// DefaultOptions is the bounded-budget search the bench harness runs.
func DefaultOptions() Options {
	return Options{
		Seed:           1,
		Budget:         24,
		RoundSize:      4,
		Workers:        1,
		Epsilon:        0.2,
		TraceSec:       600,
		HistoryDays:    []int{1, 3},
		MinimizeProbes: 10,
		MaxRepros:      4,
	}
}

func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.Budget <= 0 {
		o.Budget = def.Budget
	}
	if o.RoundSize <= 0 {
		o.RoundSize = def.RoundSize
	}
	if o.Epsilon <= 0 {
		o.Epsilon = def.Epsilon
	}
	if o.TraceSec <= 0 {
		o.TraceSec = def.TraceSec
	}
	if o.HistoryDays == nil {
		o.HistoryDays = def.HistoryDays
	}
	if o.MinimizeProbes <= 0 {
		o.MinimizeProbes = def.MinimizeProbes
	}
	if o.MaxRepros <= 0 {
		o.MaxRepros = def.MaxRepros
	}
	return o
}

// ArmStat is one arm's aggregate over the run.
type ArmStat struct {
	Name   string  `json:"name"`
	Pulls  int     `json:"pulls"`
	Mean   float64 `json:"mean_score"`
	Misses int     `json:"misses"`
}

// KindStat aggregates per anomaly family.
type KindStat struct {
	Kind   string  `json:"kind"`
	Cases  int     `json:"cases"`
	Misses int     `json:"misses"`
	Mean   float64 `json:"mean_score"`
}

// Found is one recorded miss: the minimized vector plus how it was found.
type Found struct {
	Name      string             `json:"name"`
	Arm       string             `json:"arm"`
	CaseIndex int64              `json:"case_index"`
	Params    caseio.ReproParams `json:"params"`
	Original  caseio.ReproParams `json:"original"`
	Probes    int                `json:"probes"`
	Verdict   caseio.Verdict     `json:"verdict"`
	Bundle    string             `json:"bundle,omitempty"`
}

// Result is the search outcome, serialized into BENCH_fuzz.json.
type Result struct {
	Schema   string  `json:"schema"`
	Seed     int64   `json:"seed"`
	Budget   int     `json:"budget"`
	TraceSec int     `json:"trace_sec"`
	Epsilon  float64 `json:"epsilon"`

	Cases  int `json:"cases"`
	Misses int `json:"misses"`

	// Digest fingerprints the whole trajectory: every (index, arm,
	// params, verdict) tuple, every minimized repro, and the final bandit
	// state. Two runs with equal Options must produce equal digests.
	Digest string `json:"digest"`

	Arms   []ArmStat  `json:"arms"`
	ByKind []KindStat `json:"by_kind"`
	Found  []Found    `json:"found"`

	Sec         float64 `json:"sec"`
	CasesPerSec float64 `json:"cases_per_sec"`
}

// Schema identifies the result format.
const Schema = "pinsql-fuzz/v1"

// StableJSON renders the result with wall-clock fields zeroed and bundle
// paths stripped (a cross-check run writes no bundles) — the byte form two
// determinism-checked runs are compared on.
func (r *Result) StableJSON() ([]byte, error) {
	c := *r
	c.Sec = 0
	c.CasesPerSec = 0
	c.Found = append([]Found(nil), r.Found...)
	for i := range c.Found {
		c.Found[i].Bundle = ""
	}
	data, err := json.MarshalIndent(&c, "", " ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// searcher holds the run-wide evaluation context.
type searcher struct {
	genOpt cases.Options
	cfg    core.Config
}

// eval generates and diagnoses one parameter vector. idx seeds the world
// and arrival noise; minimization probes reuse their case's idx so every
// probe differs from the original only by the vector.
func (s *searcher) eval(idx int64, p cases.CaseParams) (probeResult, error) {
	lab, err := cases.GenerateFromParams(s.genOpt, idx, p)
	if err != nil {
		return probeResult{}, err
	}
	d := core.DiagnoseFrame(lab.Case, lab.Case.Frame, s.cfg)
	return probeResult{params: p, lab: lab, diag: d, v: Judge(lab.RSQLs, lab.HSQLs, d)}, nil
}

// Run executes the search. The returned Result (modulo Sec/CasesPerSec)
// and every written bundle are pure functions of opt.
func Run(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	start := time.Now()

	s := &searcher{
		genOpt: cases.Options{
			Seed:        opt.Seed,
			TraceSec:    opt.TraceSec,
			HistoryDays: opt.HistoryDays,
			Cores:       opt.Cores,
			Workers:     1,
		},
		cfg: func() core.Config {
			c := core.DefaultConfig()
			c.Workers = 1
			return c
		}(),
	}

	arms := defaultArms()
	rng := newSplitMix(uint64(opt.Seed) ^ 0xf00d5eed)
	b := newBandit(arms, opt.Epsilon, rng)

	res := &Result{
		Schema:   Schema,
		Seed:     opt.Seed,
		Budget:   opt.Budget,
		TraceSec: opt.TraceSec,
		Epsilon:  opt.Epsilon,
	}
	h := sha256.New()
	armMisses := make([]int, len(arms))
	kindCases := map[workload.AnomalyKind]*KindStat{}

	type pick struct {
		idx int64
		arm int
		p   cases.CaseParams
	}

	for done := 0; done < opt.Budget; {
		n := opt.RoundSize
		if rem := opt.Budget - done; n > rem {
			n = rem
		}
		// The round's picks are drawn before any of its results exist, so
		// the trajectory does not depend on evaluation interleaving.
		picks := make([]pick, n)
		for i := range picks {
			a := b.pick()
			picks[i] = pick{idx: int64(done + i), arm: a, p: arms[a].sample(rng, opt.TraceSec)}
		}

		results := make([]probeResult, n)
		err := parallel.OrderedStream(opt.Workers, n,
			func(i int) (probeResult, error) {
				return s.eval(picks[i].idx, picks[i].p)
			},
			func(i int, r probeResult) error {
				results[i] = r
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("fuzz: case %d: %w", done, err)
		}

		for i, r := range results {
			pk := picks[i]
			b.update(pk.arm, r.v.Score)
			res.Cases++
			if r.v.Miss {
				res.Misses++
				armMisses[pk.arm]++
			}
			ks := kindCases[pk.p.Kind]
			if ks == nil {
				ks = &KindStat{Kind: pk.p.Kind.String()}
				kindCases[pk.p.Kind] = ks
			}
			ks.Cases++
			ks.Mean += r.v.Score
			if r.v.Miss {
				ks.Misses++
			}
			digestCase(h, pk.idx, arms[pk.arm].Name(), r.params, r.v)

			if r.v.Miss && len(res.Found) < opt.MaxRepros {
				f, err := s.record(opt, pk.idx, arms[pk.arm].Name(), r)
				if err != nil {
					return nil, err
				}
				res.Found = append(res.Found, *f)
				digestFound(h, f)
			}
		}
		done += n
	}

	// Final bandit state folds into the digest: a trajectory divergence
	// anywhere shows up even if per-case lines were somehow equal.
	for i := range arms {
		fmt.Fprintf(h, "arm|%s|%d|%.9f\n", arms[i].Name(), b.pulls[i], b.total[i])
	}
	res.Digest = fmt.Sprintf("%x", h.Sum(nil))

	for i := range arms {
		res.Arms = append(res.Arms, ArmStat{
			Name:   arms[i].Name(),
			Pulls:  b.pulls[i],
			Mean:   b.mean(i),
			Misses: armMisses[i],
		})
	}
	for _, k := range []workload.AnomalyKind{
		workload.KindBusinessSpike, workload.KindPoorSQL,
		workload.KindLockStorm, workload.KindMDL,
	} {
		ks := kindCases[k]
		if ks == nil {
			continue
		}
		if ks.Cases > 0 {
			ks.Mean /= float64(ks.Cases)
		}
		res.ByKind = append(res.ByKind, *ks)
	}

	res.Sec = time.Since(start).Seconds()
	if res.Sec > 0 {
		res.CasesPerSec = float64(res.Cases) / res.Sec
	}
	return res, nil
}

// record minimizes one miss, runs the replay self-check, and (when a
// corpus directory is configured) writes the repro bundle.
func (s *searcher) record(opt Options, idx int64, armName string, orig probeResult) (*Found, error) {
	probe := func(p cases.CaseParams) (probeResult, bool) {
		if p.Validate(opt.TraceSec) != nil {
			return probeResult{}, false
		}
		r, err := s.eval(idx, p)
		if err != nil || !r.v.Miss {
			return probeResult{}, false
		}
		return r, true
	}
	min, probes := minimize(probe, orig, opt.MinimizeProbes)

	name := fmt.Sprintf("seed%d-case%04d-%s", opt.Seed, idx, min.params.Kind)
	expected, _ := min.lab.TruthIDs()
	m := &caseio.ReproManifest{
		Version:        caseio.ManifestVersion,
		Name:           name,
		Seed:           opt.Seed,
		CaseIndex:      idx,
		TraceSec:       opt.TraceSec,
		Arm:            armName,
		HistoryDays:    opt.HistoryDays,
		Cores:          opt.Cores,
		Params:         toRepro(min.params),
		MinimizeProbes: probes,
		Expected:       expected,
		ActualR:        headIDs(min.diag.RSQLIDs(), 8),
		ActualH:        headIDs(min.diag.HSQLIDs(), 5),
		Verdict:        min.v,
	}
	if min.params != orig.params {
		op := toRepro(orig.params)
		m.Original = &op
	}

	file, err := s.replayCheck(name, min)
	if err != nil {
		return nil, err
	}

	f := &Found{
		Name:      name,
		Arm:       armName,
		CaseIndex: idx,
		Params:    m.Params,
		Original:  toRepro(orig.params),
		Probes:    probes,
		Verdict:   min.v,
	}
	if opt.CorpusDir != "" {
		dir := filepath.Join(opt.CorpusDir, name)
		if err := caseio.WriteBundle(dir, m, file); err != nil {
			return nil, fmt.Errorf("fuzz: writing bundle %s: %w", dir, err)
		}
		f.Bundle = dir
	}
	return f, nil
}

// replayCheck round-trips the minimized case through the bundle document
// format and re-diagnoses the re-read frame: the replayed verdict must be
// byte-identical to the live one, or the bundle would not reproduce the
// miss it claims. A failure here is a determinism bug, not a bad case.
func (s *searcher) replayCheck(name string, min probeResult) (*caseio.File, error) {
	file := caseio.FromFrame(min.lab.Case, min.lab.Case.Frame)
	file.Name = name
	file.Truth = &caseio.Truth{Kind: min.lab.Kind.String()}
	file.Truth.RSQLs, file.Truth.HSQLs = min.lab.TruthIDs()

	var buf bytes.Buffer
	if err := file.Write(&buf); err != nil {
		return nil, err
	}
	rf, err := caseio.Read(&buf)
	if err != nil {
		return nil, err
	}
	c, fr, err := rf.ToFrame()
	if err != nil {
		return nil, err
	}
	d := core.DiagnoseFrame(c, fr, s.cfg)
	v := Judge(idSet(rf.Truth.RSQLs), idSet(rf.Truth.HSQLs), d)

	want, err := json.Marshal(min.v)
	if err != nil {
		return nil, err
	}
	got, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(want, got) {
		return nil, fmt.Errorf("fuzz: replay self-check failed for %s: live %s vs replayed %s",
			name, want, got)
	}
	return file, nil
}

// digestCase folds one evaluated case into the trajectory digest.
func digestCase(h interface{ Write([]byte) (int, error) }, idx int64, arm string, p cases.CaseParams, v caseio.Verdict) {
	pj, _ := json.Marshal(toRepro(p))
	vj, _ := json.Marshal(v)
	fmt.Fprintf(h, "case|%d|%s|%s|%s\n", idx, arm, pj, vj)
}

// digestFound folds one minimized repro into the trajectory digest.
func digestFound(h interface{ Write([]byte) (int, error) }, f *Found) {
	pj, _ := json.Marshal(f.Params)
	vj, _ := json.Marshal(f.Verdict)
	fmt.Fprintf(h, "min|%s|%s|%d|%s\n", f.Name, pj, f.Probes, vj)
}

// toRepro converts the generator vector to its serialization mirror.
func toRepro(p cases.CaseParams) caseio.ReproParams {
	return caseio.ReproParams{
		Kind:            p.Kind.String(),
		Service:         p.Service,
		Intensity:       p.Intensity,
		StartSec:        p.StartSec,
		DurSec:          p.DurSec,
		FillerServices:  p.FillerServices,
		FillerSpecs:     p.FillerSpecs,
		ConfuserService: p.ConfuserService,
		ConfuserFactor:  p.ConfuserFactor,
		ConfuserLeadSec: p.ConfuserLeadSec,
		ConfuserDurSec:  p.ConfuserDurSec,
	}
}

// headIDs renders the head of a ranked ID list.
func headIDs(ids []sqltemplate.ID, n int) []string {
	if len(ids) > n {
		ids = ids[:n]
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return out
}

// idSet parses truth strings back into a set.
func idSet(ids []string) map[sqltemplate.ID]bool {
	out := make(map[sqltemplate.ID]bool, len(ids))
	for _, id := range ids {
		out[sqltemplate.ID(id)] = true
	}
	return out
}
