package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/core"
	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/logstore"
	"pinsql/internal/logstore/segment"
	"pinsql/internal/repair"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/window"
)

// span is one timed call into a layer, or a root that groups them. Spans
// live in memory while the run lasts and are written out afterwards.
type span struct {
	ID       int    `json:"id"`     // 1-based
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Instance string `json:"instance"`
	Window   int    `json:"window"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count"` // units of work inside: records, observations, pairs
}

// Root span names; every other name is a layer.
const (
	rootWindow   = "window"   // one monitoring window through every layer
	rootInstance = "instance" // end-of-instance storage work: seal, scan, reopen
	rootDrain    = "drain"    // file adapters drained with nothing behind them
	rootCase     = "case"     // diagnose-wide: the wide case diagnosed alone
)

// wideCalls is how many times one sweep diagnoses the wide case.
const wideCalls = 10

func isRoot(name string) bool {
	return name == rootWindow || name == rootInstance || name == rootDrain || name == rootCase
}

// tracer records spans from the benchmark's side of each call; the program
// under test carries no instrumentation. A nil tracer records nothing, so
// the same driver runs traced and untraced.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

func (t *tracer) begin(parent int, name, instance string, window int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: t.workload, Instance: instance, Window: window,
		StartNs: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.t0))
	t.spans[id-1].Count = count
}

// child adds a finished span under parent: DiagnoseFrame reports its own
// stage durations (Diagnosis.Time), laid end to end from the parent's start.
func (t *tracer) child(parent int, name string, offset *int64, dur time.Duration, count int64) {
	if t == nil {
		return
	}
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Workload: p.Workload, Instance: p.Instance, Window: p.Window,
		StartNs: p.StartNs + *offset, EndNs: p.StartNs + *offset + int64(dur), Count: count,
	})
	*offset += int64(dur)
}

// layerTotal is what a set of spans says about one layer.
type layerTotal struct {
	selfNs int64 // duration minus the part child spans cover
	count  int64
	spans  int
}

// totals folds spans into per-name self time, and returns with it the
// coverage: layer self time as a share of root span time.
func totals(spans []span) (map[string]*layerTotal, float64) {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNs - s.StartNs
		}
	}
	out := map[string]*layerTotal{}
	var rootNs, layerNs int64
	for i, s := range spans {
		if isRoot(s.Name) {
			rootNs += s.EndNs - s.StartNs
			continue
		}
		layerNs += self[i]
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.selfNs += self[i]
		lt.count += s.Count
		lt.spans++
	}
	if rootNs == 0 {
		return out, 0
	}
	return out, float64(layerNs) / float64(rootNs)
}

// layerMetrics maps span names to the per-layer metrics of BENCHMARK.json.
// perCount divides self time by the spans' summed counts, otherwise by the
// number of spans; scale converts nanoseconds to the metric's unit.
var layerMetrics = []struct {
	metric, span string
	perCount     bool
	scale        float64
}{
	{"ingest.trace_decode_ns_per_record", "ingest.trace_decode", true, 1},
	{"ingest.slowlog_parse_ns_per_record", "ingest.slowlog_parse", true, 1},
	{"ingest.next_ns_per_record", "ingest.next", true, 1},
	{"ingest.play_window_ns_per_record", "ingest.play_window", true, 1},
	{"sqltemplate.normalize_ns_per_stmt", "sqltemplate.normalize", true, 1},
	{"collect.intern_ns_per_record", "collect.intern", true, 1},
	{"collect.ingest_ns_per_record", "collect.ingest", true, 1},
	{"collect.frame_close_ms", "collect.frame_close", false, 1e-6},
	{"core.perceive_ms_per_window", "core.perceive", false, 1e-6},
	{"session.estimate_ms_per_case", "session.estimate", false, 1e-6},
	{"session.estimate_ns_per_obs", "session.estimate", true, 1},
	{"impact.rank_ms_per_case", "impact.rank", false, 1e-6},
	{"rootcause.cluster_ms_per_case", "rootcause.cluster", false, 1e-6},
	{"rootcause.cluster_ns_per_pair", "rootcause.cluster", true, 1},
	{"rootcause.verify_ms_per_case", "rootcause.verify", false, 1e-6},
	{"repair.suggest_us_per_case", "repair.suggest", false, 1e-3},
	{"logstore.append_ns_per_record", "logstore.append", true, 1},
	{"logstore.scan_ns_per_record", "logstore.scan", true, 1},
	{"segment.append_ns_per_record", "segment.append", true, 1},
	{"segment.seal_ms", "segment.seal", false, 1e-6},
	{"segment.scan_ns_per_record", "segment.scan", true, 1},
	{"segment.open_ms", "segment.open", false, 1e-6},
}

// layerDriver runs the recorded windows through every layer in sequence on
// one goroutine, calling the same public functions the fleet calls.
type layerDriver struct {
	w     *workloadDef
	in    *input
	dir   string
	mod   *repair.Module
	cfg   core.Config
	sweep int

	traceFile, slowFile string // short files the adapters are drained from

	// Accumulated over traced sweeps, for the metrics spans do not carry.
	segBytes, segRecords int64
	rawHits, rawMisses   uint64
	diagNs, diagChildNs  int64
}

func newLayerDriver(w *workloadDef, in *input) (*layerDriver, error) {
	d := &layerDriver{
		w: w, in: in, dir: filepath.Join(in.dir, "layers"),
		mod: repair.New(repair.DefaultConfig(), repair.DefaultOptimizer()),
		cfg: core.DefaultConfig(),
	}
	d.cfg.Workers = 1
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	// A minute of the first recording in each file format: enough records
	// for a per-record cost, short enough to drain on every sweep.
	rec := in.recs[0]
	seconds := int64(min(60, rec.windowSec))
	d.traceFile = filepath.Join(d.dir, "drain.trace.gz")
	d.slowFile = filepath.Join(d.dir, "drain.slow.log.gz")
	if err := writeTraceFile(d.traceFile, rec, seconds); err != nil {
		return nil, err
	}
	return d, writeSlowLogFile(d.slowFile, rec, seconds)
}

// run makes one sweep over the first two instances' recorded windows and
// returns how many windows it drove. tr may be nil.
func (d *layerDriver) run(tr *tracer) (int, error) {
	d.sweep++
	ins, _ := d.w.fleet(d.in)
	windows := 0
	for i := 0; i < len(ins) && i < 2; i++ {
		n, err := d.instance(tr, ins[i], d.in.recs[i])
		if err != nil {
			return 0, fmt.Errorf("layer driver: %s: %w", ins[i].id, err)
		}
		windows += n
	}
	if wc := d.in.wide; wc != nil {
		for i := 0; i < wideCalls; i++ {
			root := tr.begin(0, rootCase, d.in.recs[0].id, 0)
			d.diagnose(tr, root, d.in.recs[0].id, 0, wc.c, wc.frame)
			tr.end(root, 1)
		}
	}
	root := tr.begin(0, rootDrain, "", -1)
	for _, f := range []struct{ span, path, format string }{
		{"ingest.trace_decode", d.traceFile, ingest.FormatTrace},
		{"ingest.slowlog_parse", d.slowFile, ingest.FormatSlowLog},
	} {
		sp := tr.begin(root, f.span, "", -1)
		src, err := ingest.Open(f.path, f.format, ingest.OpenOptions{})
		if err != nil {
			return 0, err
		}
		var n int64
		for {
			b, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				src.Close()
				return 0, err
			}
			n += int64(len(b.Records))
		}
		src.Close()
		tr.end(sp, n)
	}
	tr.end(root, 0)
	return windows, nil
}

// diagnose spans one DiagnoseFrame call, its stages from the Diagnosis.Time
// it returns, and the repair suggestion for its first R-SQL.
func (d *layerDriver) diagnose(tr *tracer, root int, id string, w int, c *anomaly.Case, fr *window.Frame) {
	sp := tr.begin(root, "core.diagnose", id, w)
	diag := core.DiagnoseFrame(c, fr, d.cfg)
	tr.end(sp, 1)
	t := int64(len(fr.Templates))
	var off int64
	tr.child(sp, "session.estimate", &off, diag.Time.EstimateSession, int64(len(fr.Arrival)))
	tr.child(sp, "impact.rank", &off, diag.Time.RankHSQL, t)
	tr.child(sp, "rootcause.cluster", &off, diag.Time.ClusterFilter, t*(t-1)/2)
	tr.child(sp, "rootcause.verify", &off, diag.Time.VerifyRank, int64(len(diag.RSQLs)))
	if tr != nil {
		d.diagNs += tr.spans[sp-1].EndNs - tr.spans[sp-1].StartNs
		d.diagChildNs += off
	}
	if len(diag.RSQLs) > 0 {
		sp = tr.begin(root, "repair.suggest", id, w)
		d.mod.Suggest(c, []sqltemplate.ID{diag.RSQLs[0].ID})
		tr.end(sp, 1)
	}
}

// instance drives one instance's recorded windows, then the end-of-instance
// storage steps.
func (d *layerDriver) instance(tr *tracer, in instanceInput, rec *recording) (int, error) {
	id := in.id
	src, err := in.open()
	if err != nil {
		return 0, err
	}
	defer src.Close()
	segDir := filepath.Join(d.dir, fmt.Sprintf("seg-%d-%s", d.sweep, id))
	seg, err := segment.Open(segDir, segment.Options{})
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(segDir)
	mem := logstore.New(0)
	registry := collect.NewRegistry()  // the instance's, as in the fleet
	internReg := collect.NewRegistry() // Intern timed on its own
	brokerReg := collect.NewRegistry()
	broker := collect.NewBroker()
	defer broker.Close()
	floorPlay := ingest.NewPlayer(rec.source(rec.windows))

	windowMs := int64(in.windowSec) * 1000
	windows := 0
	var stored int64
	var scanned []logstore.Record
	for w := 0; w < rec.windows; w++ {
		fromMs, toMs := int64(w)*windowMs, int64(w+1)*windowMs
		root := tr.begin(0, rootWindow, id, w)

		// Source → intern / ingest, one batch (trace second) at a time.
		staging := logstore.New(0)
		coll := collect.NewCollector(id, fromMs, toMs, registry, staging)
		rows := make([]dbsim.SecondMetrics, in.windowSec)
		for i := range rows {
			rows[i].Second = int64(i)
		}
		// The window's records, kept for the broker path and dropped after
		// it, so the collector is not live beside millions of string headers
		// when the window is wide. Sized up front: growing it took a third of
		// a wide sweep, outside every span.
		recs := make([]dbsim.LogRecord, 0, rec.maxWindowRecords())
		eof := false
		for s := 0; s < in.windowSec && !eof; s++ {
			sp := tr.begin(root, "ingest.next", id, w)
			b, err := src.Next()
			tr.end(sp, int64(len(b.Records)))
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			n := int64(len(b.Records))
			recs = append(recs, b.Records...)
			sp = tr.begin(root, "collect.intern", id, w)
			for _, r := range b.Records {
				internReg.Intern(r)
			}
			tr.end(sp, n)
			sp = tr.begin(root, "collect.ingest", id, w)
			for _, r := range b.Records {
				coll.Ingest(r)
			}
			tr.end(sp, n)
			if s%8 == 0 { // a sample: normalizing every statement would double the sweep
				sp = tr.begin(root, "sqltemplate.normalize", id, w)
				for _, r := range b.Records {
					sqltemplate.Normalize(r.SQL)
				}
				tr.end(sp, n)
			}
			for _, m := range b.Metrics {
				if rel := m.Second - fromMs/1000; rel >= 0 && rel < int64(len(rows)) {
					m.Second = rel
					rows[rel] = m
				}
			}
			eof = b.Last
		}
		if len(recs) == 0 {
			tr.end(root, 0)
			break
		}
		coll.IngestMetricsAt(rows)
		windows++

		// The same window through broker → stream aggregator, as the fleet
		// collects it; minus collect.ingest this is the broker's own cost.
		sp := tr.begin(root, "collect.broker", id, w)
		viaBroker := collect.NewCollector(id, fromMs, toMs, brokerReg, logstore.New(0))
		ch, cancel := broker.Subscribe(id, 65536)
		done := collect.NewStreamAggregator(viaBroker).Consume(ch)
		publish := broker.BlockingSink(id)
		for _, r := range recs {
			publish(r)
		}
		cancel()
		<-done
		tr.end(sp, int64(len(recs)))
		windowRecords := int64(len(recs))
		recs = nil

		// The harness floor: the replay source through the player into
		// nothing.
		sp = tr.begin(root, "ingest.play_window", id, w)
		var played int64
		if _, _, err := floorPlay.PlayWindow(fromMs, toMs, func(dbsim.LogRecord) { played++ }); err != nil {
			return 0, err
		}
		tr.end(sp, played)

		sp = tr.begin(root, "collect.frame_close", id, w)
		fr := coll.Frame()
		tr.end(sp, 1)

		sp = tr.begin(root, "core.perceive", id, w)
		per := core.NewPerception(anomaly.Config{}, nil)
		per.ObserveFrame(fr)
		phenomena := per.Phenomena()
		tr.end(sp, 1)

		// The wide window's case is diagnosed in run, alone, as its timed
		// loop does it: here the staged window is live beside it, and the
		// collector's marking tripled a case's time.
		if d.in.wide == nil {
			snap := collect.SnapshotOfFrame(fr)
			for _, ph := range phenomena {
				d.diagnose(tr, root, id, w, anomaly.NewCase(snap, ph), fr)
			}
		}

		// Commit: staged records, arrival-sorted, into both long-term
		// backends.
		sp = tr.begin(root, "logstore.scan", id, w)
		scanned = scanned[:0]
		staging.ScanFunc(id, fromMs, toMs, func(r logstore.Record) bool {
			scanned = append(scanned, r)
			return true
		})
		tr.end(sp, int64(len(scanned)))
		sp = tr.begin(root, "logstore.append", id, w)
		for _, r := range scanned {
			if err := mem.Append(id, r); err != nil {
				return 0, err
			}
		}
		mem.Expire(toMs)
		tr.end(sp, int64(len(scanned)))
		sp = tr.begin(root, "segment.append", id, w)
		for _, r := range scanned {
			if err := seg.Append(id, r); err != nil {
				return 0, err
			}
		}
		seg.Expire(toMs)
		tr.end(sp, int64(len(scanned)))
		stored += int64(len(scanned))
		tr.end(root, windowRecords)
	}

	root := tr.begin(0, rootInstance, id, -1)
	sp := tr.begin(root, "segment.seal", id, -1)
	if err := seg.Seal(); err != nil {
		return 0, err
	}
	if err := seg.Close(); err != nil {
		return 0, err
	}
	tr.end(sp, 1)
	sp = tr.begin(root, "segment.open", id, -1)
	seg, err = segment.Open(segDir, segment.Options{})
	if err != nil {
		return 0, err
	}
	tr.end(sp, 1)
	sp = tr.begin(root, "segment.scan", id, -1)
	var n int64
	seg.ScanFunc(id, 0, math.MaxInt64, func(logstore.Record) bool {
		n++
		return true
	})
	tr.end(sp, n)
	if err := seg.Close(); err != nil {
		return 0, err
	}
	tr.end(root, n)
	if n != stored {
		return 0, fmt.Errorf("segment store returned %d of %d appended records after reopen", n, stored)
	}
	if tr != nil {
		bytes, err := dirBytes(segDir)
		if err != nil {
			return 0, err
		}
		d.segBytes += bytes
		d.segRecords += stored
		hits, misses, _ := internReg.RawCacheStats()
		d.rawHits += hits
		d.rawMisses += misses
	}
	return windows, nil
}

// runTraced is the traced run: the layer driver over the recorded windows,
// alternately with spans and without; then a shortened end-to-end run and
// two closed-loop fleet passes for the numbers only a running fleet has.
func runTraced(w *workloadDef, in *input, opt options, res *result) error {
	d, err := newLayerDriver(w, in)
	if err != nil {
		return err
	}
	var all []span
	var tracedRate, plainRate sample
	perSweep := map[string]sample{}
	deadline := time.Now().Add(time.Duration(0.4 * opt.seconds * float64(time.Second)))
	for len(tracedRate) == 0 || time.Now().Before(deadline) {
		tr := &tracer{t0: time.Now(), workload: w.name}
		start := time.Now()
		n, err := d.run(tr)
		if err != nil {
			return err
		}
		tracedRate = append(tracedRate, float64(n)/time.Since(start).Seconds())
		layers, coverage := totals(tr.spans)
		for _, lm := range layerMetrics {
			lt := layers[lm.span]
			if lt == nil {
				continue
			}
			denom := float64(lt.spans)
			if lm.perCount {
				denom = float64(lt.count)
			}
			if denom > 0 {
				perSweep[lm.metric] = append(perSweep[lm.metric], float64(lt.selfNs)*lm.scale/denom)
			}
		}
		if b, i := layers["collect.broker"], layers["collect.ingest"]; b != nil && i != nil && b.count > 0 {
			perSweep["collect.broker_ns_per_record"] = append(perSweep["collect.broker_ns_per_record"],
				float64(b.selfNs-i.selfNs)/float64(b.count))
		}
		if dg := layers["core.diagnose"]; dg != nil {
			// The case's whole cost: the parent's own time plus its stages.
			var ns int64
			for _, name := range []string{"core.diagnose", "session.estimate", "impact.rank", "rootcause.cluster", "rootcause.verify"} {
				if lt := layers[name]; lt != nil {
					ns += lt.selfNs
				}
			}
			perSweep["core.diagnose_ms_per_case"] = append(perSweep["core.diagnose_ms_per_case"], float64(ns)/1e6/float64(dg.spans))
		}
		perSweep["bench.trace_coverage"] = append(perSweep["bench.trace_coverage"], coverage)
		for i := range tr.spans { // keep ids unique across sweeps in trace.jsonl
			tr.spans[i].ID += len(all)
			if tr.spans[i].Parent > 0 {
				tr.spans[i].Parent += len(all)
			}
		}
		all = append(all, tr.spans...)

		start = time.Now()
		if n, err = d.run(nil); err != nil {
			return err
		}
		plainRate = append(plainRate, float64(n)/time.Since(start).Seconds())
	}
	for _, lm := range layerMetrics {
		res.layer[lm.metric] = orZero(perSweep[lm.metric])
	}
	for _, name := range []string{"collect.broker_ns_per_record", "core.diagnose_ms_per_case", "bench.trace_coverage"} {
		res.layer[name] = orZero(perSweep[name])
	}
	res.layer["bench.trace_overhead_ratio"] = sample{plainRate.Median() / tracedRate.Median()}
	res.layer["segment.bytes_per_record"] = sample{float64(d.segBytes) / float64(max(d.segRecords, 1))}
	res.layer["collect.raw_cache_hit_ratio"] = sample{float64(d.rawHits) / float64(max(d.rawHits+d.rawMisses, 1))}
	res.checkTiming(res.layer["bench.trace_coverage"].Median() >= 0.8,
		"layer spans cover %.2f of the root spans, want 0.8", res.layer["bench.trace_coverage"].Median())
	if d.diagNs > 0 {
		gap := math.Abs(float64(d.diagNs-d.diagChildNs)) / float64(d.diagNs)
		res.checkTiming(gap <= 0.05, "DiagnoseFrame stage times sum to %.3f of the call, want within 0.05", 1-gap)
	}
	if err := writeSpans(filepath.Join(opt.out, "trace.jsonl"), all); err != nil {
		return err
	}

	// What only a running fleet shows: stage summaries, journal batching,
	// queues, report merge, scrape — from the workload's own run.
	if err := w.run(w, in, 0.3*opt.seconds, res); err != nil {
		return err
	}
	return probeFleet(w, in, res)
}

// probeFleet runs the workload's fleet closed-loop at one worker and at
// nproc workers: the single-threaded baseline and what the second core
// buys. It also fills in the fleet-level layer metrics the workload's own
// run did not produce (diagnose-wide runs no fleet; only fleet-paced
// restarts one).
func probeFleet(w *workloadDef, in *input, res *result) error {
	ins, cfg := w.fleet(in)
	one := cfg
	one.workers = 1
	if cfg.dataDir != "" {
		one.dataDir, cfg.dataDir = cfg.dataDir+"-probe1", cfg.dataDir+"-probeN"
	}
	cfg.workers = runtime.GOMAXPROCS(0)
	st1, err := runPass(ins, one)
	if err != nil {
		return err
	}
	stN, err := runPass(ins, cfg)
	if err != nil {
		return err
	}
	res.checkPass(stN, stN)
	res.checkPass(st1, stN) // one worker must report what nproc workers report
	single := float64(st1.committed) / st1.wall.Seconds()
	res.layer["fleet.single_worker_windows_per_s"] = sample{single}
	res.layer["fleet.worker_scaling"] = sample{float64(stN.committed) / stN.wall.Seconds() / single}
	if _, ok := res.layer["fleet.stage_collect_ms_per_window"]; !ok {
		res.addFleetLayers(stN)
	}
	if _, ok := res.layer["fleet.restart_ms"]; !ok {
		took, _, err := reopen(ins, cfg)
		if err != nil {
			return err
		}
		res.layer["fleet.restart_ms"] = sample{ms(took)}
		res.layer["fleet.disk_bytes_per_record"] = sample{0} // nothing on disk
	}
	return nil
}

func orZero(s sample) sample {
	if len(s) == 0 {
		return sample{0}
	}
	return s
}

// writeSpans appends one JSON object per span to path; span ids are unique
// within a workload.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
