package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"pinsql/internal/cases"
	"pinsql/internal/dbsim"
	"pinsql/internal/parallel"
)

// GenBenchOptions configures the generation fast-path benchmark.
type GenBenchOptions struct {
	Seed    int64
	Cases   int  // corpus size for the generation timing; 0 → 6
	Workers int  // parallel worker count; 0 → GOMAXPROCS
	Small   bool // reduced trace lengths (CI-sized)
}

// GenBench reports the substrate fast path: parallel case generation
// against the sequential baseline (with an output-equivalence check) and
// the dbsim event-loop microbenchmark.
// It is the document behind BENCH_gen.json.
type GenBench struct {
	// Case generation.
	Workers    int     `json:"workers"`
	Cases      int     `json:"cases"`
	SeqSec     float64 `json:"seq_sec"`      // sequential corpus wall-clock
	ParSec     float64 `json:"par_sec"`      // parallel corpus wall-clock
	Speedup    float64 `json:"speedup"`      // SeqSec / ParSec
	SeqSimsSec float64 `json:"seq_sims_sec"` // case simulations per second
	ParSimsSec float64 `json:"par_sims_sec"`
	Identical  bool    `json:"identical"` // parallel corpus == sequential corpus

	// dbsim event loop (warm instance, mixed contended workload).
	Events         int64   `json:"events"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

// genCorpusOptions is the corpus the generation benchmark times.
func genCorpusOptions(opt GenBenchOptions) cases.Options {
	o := cases.DefaultOptions()
	o.Seed = opt.Seed
	o.Count = opt.Cases
	o.TraceSec = 1200
	o.AnomalyStartSec = 700
	o.AnomalyMinDurSec = 180
	o.AnomalyMaxDurSec = 300
	o.FillerServices = 2
	o.FillerSpecs = 5
	o.HistoryDays = []int{1}
	if opt.Small {
		o.TraceSec = 480
		o.AnomalyStartSec = 240
		o.AnomalyMinDurSec = 90
		o.AnomalyMaxDurSec = 150
		o.FillerServices = 1
		o.FillerSpecs = 3
	}
	return o
}

// caseDigest folds every report-visible field of a generated case into a
// hash, so two corpora can be compared without holding both in memory.
func caseDigest(h io.Writer, lab *cases.Labeled) {
	fmt.Fprintf(h, "%s|%s|%v|%d|%d\n", lab.Name, lab.Kind, lab.Detected, lab.Case.AS, lab.Case.AE)
	for _, v := range lab.Case.Snapshot.ActiveSession {
		fmt.Fprintf(h, "%.17g ", v)
	}
	for _, ts := range lab.Case.Snapshot.Templates {
		fmt.Fprintf(h, "\n%s|%s", ts.Meta.ID, ts.Meta.Text)
		for i := range ts.Count {
			fmt.Fprintf(h, "|%.17g %.17g %.17g", ts.Count[i], ts.SumRT[i], ts.SumRows[i])
		}
	}
	ids := make([]string, 0, len(lab.RSQLs)+len(lab.HSQLs))
	for id := range lab.RSQLs {
		ids = append(ids, "R"+string(id))
	}
	for id := range lab.HSQLs {
		ids = append(ids, "H"+string(id))
	}
	sort.Strings(ids)
	fmt.Fprintf(h, "\n%v\n", ids)
}

func corpusHash(opt cases.Options) (string, time.Duration, error) {
	h := sha256.New()
	start := time.Now()
	err := cases.Stream(opt, func(lab *cases.Labeled) error {
		caseDigest(h, lab)
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return "", 0, err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), elapsed, nil
}

// genEventWorkload mirrors the dbsim microbenchmark workload: mixed point
// reads, narrow and wide lock-taking updates, and rare DDL on a contended
// 2-core instance.
func genEventWorkload(seed int64, n int) []*dbsim.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*dbsim.Query, 0, n)
	var t int64
	for i := 0; i < n; i++ {
		t += rng.Int63n(8)
		q := &dbsim.Query{
			TemplateID: "T", SQL: "x", Table: "sales",
			Kind: dbsim.KindSelect, ArrivalMs: t,
			ServiceMs: 0.5 + rng.Float64()*40, ExaminedRows: int64(rng.Intn(100)), IOOps: rng.Float64(),
		}
		switch rng.Intn(5) {
		case 0:
			q.Kind = dbsim.KindUpdate
			q.LockKeys = []int{rng.Intn(8)}
		case 1:
			q.Kind = dbsim.KindUpdate
			q.LockKeys = []int{rng.Intn(8), 8 + rng.Intn(8)}
		}
		qs = append(qs, q)
	}
	return qs
}

// measureEventLoop runs the dbsim microbenchmark on a warm instance and
// fills the event-loop section of the report.
func (g *GenBench) measureEventLoop(seed int64) error {
	cfg := dbsim.DefaultConfig()
	cfg.Cores = 2
	cfg.LockWaitTimeoutMs = 2000
	in := dbsim.NewInstance(cfg)
	in.CreateTable("sales", 1_000_000)

	const nq = 5000
	qs := genEventWorkload(seed, nq)
	var events int64
	run := func() error {
		_, err := in.Run(dbsim.RunOptions{
			StartMs: 0, EndMs: 60_000,
			Source: dbsim.NewSliceSource(qs),
			Sink:   func(dbsim.LogRecord) { events++ },
		})
		return err
	}
	if err := run(); err != nil { // warm the engine scratch
		return err
	}
	events = 0

	const rounds = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := run(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	g.Events = events
	if events > 0 {
		g.NsPerEvent = float64(elapsed.Nanoseconds()) / float64(events)
		g.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		g.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
		g.EventsPerSec = float64(events) / elapsed.Seconds()
	}
	return nil
}

// RunGenBench benchmarks the generation fast path: it generates
// the same corpus sequentially and with the worker pool (erroring if the
// two corpora are not identical — the determinism contract is part of the
// benchmark's pass criteria), then measures the dbsim event loop.
func RunGenBench(opt GenBenchOptions) (*GenBench, error) {
	if opt.Cases <= 0 {
		opt.Cases = 6
	}
	g := &GenBench{
		Workers: parallel.Resolve(opt.Workers),
		Cases:   opt.Cases,
	}

	seqOpt := genCorpusOptions(opt)
	seqOpt.Workers = 1
	seqHash, seqElapsed, err := corpusHash(seqOpt)
	if err != nil {
		return nil, fmt.Errorf("sequential generation: %w", err)
	}
	parOpt := genCorpusOptions(opt)
	parOpt.Workers = g.Workers
	parHash, parElapsed, err := corpusHash(parOpt)
	if err != nil {
		return nil, fmt.Errorf("parallel generation: %w", err)
	}

	g.SeqSec = seqElapsed.Seconds()
	g.ParSec = parElapsed.Seconds()
	if g.ParSec > 0 {
		g.Speedup = g.SeqSec / g.ParSec
	}
	g.SeqSimsSec = float64(opt.Cases) / g.SeqSec
	g.ParSimsSec = float64(opt.Cases) / g.ParSec
	g.Identical = seqHash == parHash
	if !g.Identical {
		return nil, fmt.Errorf("bench: parallel corpus (workers=%d) diverged from sequential corpus: %s != %s",
			g.Workers, parHash, seqHash)
	}

	if err := g.measureEventLoop(opt.Seed + 1); err != nil {
		return nil, err
	}
	return g, nil
}

// Format renders the report.
func (g *GenBench) Format() string {
	var b strings.Builder
	b.WriteString("Generation fast path\n")
	fmt.Fprintf(&b, "case generation (%d cases): seq %.2fs (%.2f sims/s)  par[%d workers] %.2fs (%.2f sims/s)  speedup %.2fx  identical=%v\n",
		g.Cases, g.SeqSec, g.SeqSimsSec, g.Workers, g.ParSec, g.ParSimsSec, g.Speedup, g.Identical)
	fmt.Fprintf(&b, "dbsim event loop: %d events  %.0f ns/event  %.4f allocs/event  %.1f B/event  %.2fM events/s\n",
		g.Events, g.NsPerEvent, g.AllocsPerEvent, g.BytesPerEvent, g.EventsPerSec/1e6)
	return b.String()
}
