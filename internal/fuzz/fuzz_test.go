package fuzz

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pinsql/internal/caseio"
	"pinsql/internal/cases"
	"pinsql/internal/core"
	"pinsql/internal/workload"
)

// smallOptions is the cheap search configuration the tests run: short
// traces, one history window, a handful of cases.
func smallOptions(seed int64, budget int) Options {
	return Options{
		Seed:           seed,
		Budget:         budget,
		RoundSize:      4,
		Workers:        1,
		TraceSec:       300,
		HistoryDays:    []int{1},
		MinimizeProbes: 4,
		MaxRepros:      2,
	}
}

// TestRunDeterministic is the core contract: two runs with the same
// options — at different worker counts — produce byte-identical stable
// results and equal digests.
func TestRunDeterministic(t *testing.T) {
	a := smallOptions(2, 4)
	b := smallOptions(2, 4)
	b.Workers = 3

	ra, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Digest != rb.Digest {
		t.Fatalf("digest diverged across worker counts:\n%s\n%s", ra.Digest, rb.Digest)
	}
	ja, err := ra.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := rb.StableJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("stable JSON diverged:\n%s\nvs\n%s", ja, jb)
	}
	if ra.Cases != 4 {
		t.Fatalf("ran %d cases, want 4", ra.Cases)
	}
}

// TestRunFindsAndMinimizesMiss pins the acceptance behaviour on a
// calibrated seed: the search finds genuine misranks, minimizes them, and
// the written bundles replay to byte-identical verdicts — both through the
// frame document and through the generator from the recorded vector.
func TestRunFindsAndMinimizesMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second search")
	}
	opt := smallOptions(1, 8)
	opt.CorpusDir = filepath.Join(t.TempDir(), "corpus")

	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses == 0 || len(res.Found) == 0 {
		t.Fatalf("calibrated seed found no misses (misses=%d found=%d)", res.Misses, len(res.Found))
	}

	f := res.Found[0]
	if f.Bundle == "" {
		t.Fatal("recorded miss has no bundle path despite CorpusDir")
	}
	m, file, err := caseio.ReadBundle(f.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.Verdict.Miss {
		t.Fatal("bundle manifest records a non-miss")
	}
	if err := FromRepro(m.Params).Validate(m.TraceSec); err != nil {
		t.Fatalf("minimized vector does not validate: %v", err)
	}

	cfg := core.DefaultConfig()
	cfg.Workers = 1

	// Replay 1: the serialized frame alone reproduces the verdict.
	c, fr, err := file.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	v := Judge(idSet(file.Truth.RSQLs), idSet(file.Truth.HSQLs), core.DiagnoseFrame(c, fr, cfg))
	assertVerdictBytes(t, m.Verdict, v, "frame replay")

	// Replay 2: the generator rebuilds the identical case from
	// (seed, case_index, params) and the diagnosis re-judges the same.
	genOpt := cases.Options{
		Seed:        m.Seed,
		TraceSec:    m.TraceSec,
		HistoryDays: m.HistoryDays,
		Cores:       m.Cores,
		Workers:     1,
	}
	lab, err := cases.GenerateFromParams(genOpt, m.CaseIndex, FromRepro(m.Params))
	if err != nil {
		t.Fatal(err)
	}
	v2 := Judge(lab.RSQLs, lab.HSQLs, core.DiagnoseFrame(lab.Case, lab.Case.Frame, cfg))
	assertVerdictBytes(t, m.Verdict, v2, "generator replay")
}

// assertVerdictBytes compares two verdicts in their canonical JSON form.
func assertVerdictBytes(t *testing.T, want, got caseio.Verdict, what string) {
	t.Helper()
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("%s verdict diverged:\nwant %s\ngot  %s", what, wb, gb)
	}
}

// TestMinimizeShrinks exercises the minimizer against a synthetic probe:
// the predicate fails whenever Intensity >= 2 and DurSec >= 60, so the
// minimum still-failing vector is known.
func TestMinimizeShrinks(t *testing.T) {
	fails := func(p cases.CaseParams) bool {
		return p.Intensity >= 2 && p.DurSec >= 60
	}
	probe := func(p cases.CaseParams) (probeResult, bool) {
		if !fails(p) {
			return probeResult{}, false
		}
		return probeResult{params: p, v: caseio.Verdict{Miss: true}}, true
	}
	seed := probeResult{
		params: cases.CaseParams{
			Kind: 1, Intensity: 8, StartSec: 60, DurSec: 200,
			FillerServices: 3, FillerSpecs: 5,
			ConfuserService: 2, ConfuserFactor: 3, ConfuserDurSec: 100,
		},
		v: caseio.Verdict{Miss: true},
	}
	best, probes := minimize(probe, seed, 64)
	if probes == 0 || probes > 64 {
		t.Fatalf("probe count out of range: %d", probes)
	}
	if best.params.ConfuserService >= 0 {
		t.Fatal("minimizer kept an unnecessary confuser")
	}
	if best.params.FillerServices != 0 || best.params.FillerSpecs != 0 {
		t.Fatalf("minimizer kept fillers: %d×%d", best.params.FillerServices, best.params.FillerSpecs)
	}
	if best.params.DurSec != 60 {
		t.Fatalf("DurSec minimized to %d, want 60", best.params.DurSec)
	}
	if best.params.Intensity >= seed.params.Intensity {
		t.Fatalf("Intensity not shrunk: %v", best.params.Intensity)
	}
	if !fails(best.params) {
		t.Fatal("minimizer returned a passing vector")
	}
}

// TestMinimizeBudgetExhausted: with a zero budget the seed comes back
// untouched.
func TestMinimizeBudgetExhausted(t *testing.T) {
	probe := func(p cases.CaseParams) (probeResult, bool) {
		t.Fatal("probe called with zero budget")
		return probeResult{}, false
	}
	seed := probeResult{params: cases.CaseParams{Intensity: 5, DurSec: 100, ConfuserService: -1}}
	best, probes := minimize(probe, seed, 0)
	if probes != 0 || best.params != seed.params {
		t.Fatalf("zero-budget minimize changed the vector (probes=%d)", probes)
	}
}

// TestRoundTripVerdictBytes is the bundle round-trip property on a fully
// in-memory path: search → bundle write → read → frame diagnose must give
// byte-for-byte the recorded verdict. (Run already self-checks this; the
// test makes the property fail loudly on its own.)
func TestRoundTripVerdictBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second search")
	}
	opt := smallOptions(1, 4) // seed 1 finds its first miss at case 1
	opt.CorpusDir = filepath.Join(t.TempDir(), "corpus")
	res, err := Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Found) == 0 {
		t.Skip("no miss inside the 4-case prefix; covered by TestRunFindsAndMinimizesMiss")
	}
	for _, f := range res.Found {
		m, file, err := caseio.ReadBundle(f.Bundle)
		if err != nil {
			t.Fatal(err)
		}
		c, fr, err := file.ToFrame()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Workers = 1
		v := Judge(idSet(file.Truth.RSQLs), idSet(file.Truth.HSQLs), core.DiagnoseFrame(c, fr, cfg))
		assertVerdictBytes(t, m.Verdict, v, m.Name)
	}
	// The bundle directory holds exactly the two canonical files.
	ents, err := os.ReadDir(res.Found[0].Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("bundle has %d entries, want manifest.json + case.json", len(ents))
	}
}

// FromRepro converts a manifest vector back to the generator's form, for
// replaying a bundle through the generator (seed + case_index + params).
// Unknown kind names fall back to the zero family; callers that care
// should pre-validate with workload.KindFromString.
func FromRepro(p caseio.ReproParams) cases.CaseParams {
	kind, _ := workload.KindFromString(p.Kind)
	return cases.CaseParams{
		Kind:            kind,
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
