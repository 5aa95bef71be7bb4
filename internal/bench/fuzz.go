package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"pinsql/internal/fuzz"
)

// FuzzBenchOptions configures the adversarial-search benchmark.
type FuzzBenchOptions struct {
	Seed      int64
	Budget    int    // cases per search run; 0 → default (small: 8)
	Workers   int    // evaluation parallelism of the first run
	Small     bool   // CI-sized traces and budget
	CorpusDir string // when set, run A writes repro bundles here
}

// FuzzBench is the document behind BENCH_fuzz.json: one full search result
// plus the determinism cross-check — the same options re-run at a
// different worker count must reproduce the stable result byte-for-byte.
type FuzzBench struct {
	Result *fuzz.Result `json:"result"`

	// Deterministic reports the cross-check outcome; a failure is also
	// returned as an error so the CLI exits non-zero.
	Deterministic bool   `json:"deterministic"`
	DigestA       string `json:"digest_a"`
	DigestB       string `json:"digest_b"`

	RunASec float64 `json:"run_a_sec"`
	RunBSec float64 `json:"run_b_sec"`
}

// fuzzOptions builds the search configuration.
func fuzzOptions(opt FuzzBenchOptions) fuzz.Options {
	o := fuzz.DefaultOptions()
	o.Seed = opt.Seed
	o.Workers = opt.Workers
	o.CorpusDir = opt.CorpusDir
	if opt.Small {
		o.Budget = 8
		o.TraceSec = 300
		o.HistoryDays = []int{1}
		o.MinimizeProbes = 4
		o.MaxRepros = 2
	}
	if opt.Budget > 0 {
		o.Budget = opt.Budget
	}
	return o
}

// RunFuzzBench runs the adversarial search twice — once as configured,
// once at a different worker count with bundle writing off — and requires
// the two stable results to be byte-identical. A divergence is a broken
// determinism contract and fails the benchmark.
func RunFuzzBench(opt FuzzBenchOptions) (*FuzzBench, error) {
	a := fuzzOptions(opt)

	start := time.Now()
	ra, err := fuzz.Run(a)
	if err != nil {
		return nil, err
	}
	aSec := time.Since(start).Seconds()

	b := a
	b.CorpusDir = ""
	b.Workers = a.Workers + 1

	start = time.Now()
	rb, err := fuzz.Run(b)
	if err != nil {
		return nil, err
	}
	bSec := time.Since(start).Seconds()

	ja, err := ra.StableJSON()
	if err != nil {
		return nil, err
	}
	jb, err := rb.StableJSON()
	if err != nil {
		return nil, err
	}

	res := &FuzzBench{
		Result:        ra,
		Deterministic: bytes.Equal(ja, jb),
		DigestA:       ra.Digest,
		DigestB:       rb.Digest,
		RunASec:       aSec,
		RunBSec:       bSec,
	}
	if !res.Deterministic {
		return nil, fmt.Errorf("bench: fuzz search diverged across worker counts (%d vs %d): digests %s vs %s",
			a.Workers, b.Workers, ra.Digest, rb.Digest)
	}
	return res, nil
}

// Format renders the report.
func (f *FuzzBench) Format() string {
	var b strings.Builder
	r := f.Result
	fmt.Fprintf(&b, "Adversarial workload search (seed %d, budget %d, trace %ds)\n",
		r.Seed, r.Budget, r.TraceSec)
	fmt.Fprintf(&b, "cases %d  misses %d  repros %d  deterministic=%v  (%.1fs + %.1fs cross-check)\n",
		r.Cases, r.Misses, len(r.Found), f.Deterministic, f.RunASec, f.RunBSec)
	fmt.Fprintf(&b, "digest %s\n", r.Digest)
	for _, k := range r.ByKind {
		fmt.Fprintf(&b, "  %-16s cases %2d  misses %2d  mean score %.3f\n", k.Kind, k.Cases, k.Misses, k.Mean)
	}
	for _, fd := range r.Found {
		fmt.Fprintf(&b, "  repro %s  arm %s  rank_of_truth %d  probes %d",
			fd.Name, fd.Arm, fd.Verdict.RankOfTruth, fd.Probes)
		if fd.Bundle != "" {
			fmt.Fprintf(&b, "  -> %s", fd.Bundle)
		}
		b.WriteString("\n")
	}
	// Arms with pulls, highest mean first lines would reorder by value —
	// keep the fixed grid order and skip unpulled arms instead.
	for _, a := range r.Arms {
		if a.Pulls == 0 {
			continue
		}
		fmt.Fprintf(&b, "  arm %-28s pulls %2d  mean %.3f  misses %d\n", a.Name, a.Pulls, a.Mean, a.Misses)
	}
	return b.String()
}
