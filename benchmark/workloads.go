package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"pinsql/internal/anomaly"
	"pinsql/internal/collect"
	"pinsql/internal/core"
	"pinsql/internal/dbsim"
	"pinsql/internal/fleet"
	"pinsql/internal/ingest"
	"pinsql/internal/parallel"
	"pinsql/internal/sqltemplate"
	"pinsql/internal/window"
	"pinsql/internal/workload"
)

// sizes are the input dimensions of a benchmark run. The pipeline under
// test sees only what these and the seed generate.
type sizes struct {
	instances int // recorded fleet: fleet.DefaultFleet(instances, seed, windows, windowSec)
	windows   int // recorded windows per instance
	windowSec int

	replayWindows int     // windows per instance in one fleet-replay pass (the recording cycled)
	logInstances  int     // fleet-logs: the first n recordings, even ones as trace codec, odd ones as slow log
	pacedSpeed    float64 // fleet-paced: trace seconds per wall second
	pacedShards   int

	wideTemplates  int // diagnose-wide: templates of the one wide window
	wideSec        int // its length: history plus anomaly
	wideAnomalySec int
}

// benchSizes are the sizes every benchmark run uses; the struct exists so
// the smoke test can run the same code at toy size. Set-up takes 7 to 17 s
// at these sizes, so it runs once per run.
var benchSizes = sizes{
	instances: 8, windows: 4, windowSec: 300,
	replayWindows: 12, logInstances: 4, pacedSpeed: 240, pacedShards: 2,
	wideTemplates: 3000, wideSec: 2100, wideAnomalySec: 300,
}

// input is what one workload's set-up produced.
type input struct {
	sz  sizes
	dir string // scratch directory for log files and data directories

	recs  []*recording    // the recorded fleet, or the one wide instance
	files []instanceInput // fleet-logs: file-backed instances
	wide  *wideCase
}

// simNsPerRecord is the simulator's cost, measured while recording: the
// share of a sim-inclusive throughput number that is not the pipeline.
func (in *input) simNsPerRecord() float64 {
	var ns, recs float64
	for _, r := range in.recs {
		ns += float64(r.simTime)
		recs += float64(len(r.tpl))
	}
	return ns / recs
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string

	setup func(sz sizes, seed int64, dir string) (*input, error)

	// fleet is how the workload runs the sharded fleet, and over which
	// instances. For diagnose-wide, whose timed loop runs no fleet, it is
	// the one-instance fleet the traced run uses to attribute fleet stages
	// on the wide window.
	fleet func(in *input) ([]instanceInput, fleetConfig)

	// run measures for about `seconds` and fills res.
	run func(w *workloadDef, in *input, seconds float64, res *result) error
}

// workloads are the four of BENCHMARK.json, in its order; the comment on
// each is why it exists.
var workloads = []*workloadDef{
	{
		// Closed loop from memory: parse and disk are out of the picture, so
		// collect and per-window detect/diagnose/commit-to-memory do the work.
		name: "fleet-replay",
		setup: func(sz sizes, seed int64, dir string) (*input, error) {
			return recordFleet(sz, seed, dir, sz.instances)
		},
		fleet: func(in *input) ([]instanceInput, fleetConfig) {
			return replayInputs(in.recs, in.sz.replayWindows),
				fleetConfig{shards: 1, workers: runtime.GOMAXPROCS(0)}
		},
		run: runClosed,
	},
	{
		// Open loop on an absolute schedule into segment stores and the
		// fsynced journal: storage is most of the busy time, and lag is
		// measured from when a window was due.
		name: "fleet-paced",
		setup: func(sz sizes, seed int64, dir string) (*input, error) {
			return recordFleet(sz, seed, dir, sz.instances)
		},
		fleet: func(in *input) ([]instanceInput, fleetConfig) {
			// A paced source sleeps inside its scheduler worker: one
			// worker per instance to sleep in, nproc to work in.
			return replayInputs(in.recs, in.sz.replayWindows), fleetConfig{
				shards:  in.sz.pacedShards,
				workers: len(in.recs) + runtime.GOMAXPROCS(0),
				dataDir: filepath.Join(in.dir, "data"),
			}
		},
		run: runPaced,
	},
	{
		// Closed loop from gzip trace and MySQL slow-log files: decode, replay
		// clock, session synthesis and SQL normalization dominate, the reverse
		// of fleet-replay.
		name: "fleet-logs",
		setup: func(sz sizes, seed int64, dir string) (*input, error) {
			in, err := recordFleet(sz, seed, dir, sz.logInstances)
			if err != nil {
				return nil, err
			}
			return in, in.writeLogFiles()
		},
		fleet: func(in *input) ([]instanceInput, fleetConfig) {
			return in.files, fleetConfig{shards: 1, workers: runtime.GOMAXPROCS(0)}
		},
		run: runClosed,
	},
	{
		// One window of three thousand templates diagnosed alone: session
		// estimation, H-SQL ranking and the quadratic clustering do all the
		// work, ingest, collect and storage none.
		name:  "diagnose-wide",
		setup: setupWide,
		fleet: func(in *input) ([]instanceInput, fleetConfig) {
			return replayInputs(in.recs, 1), fleetConfig{shards: 1, workers: runtime.GOMAXPROCS(0)}
		},
		run: runDiagnose,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// worldSeed is the fixed seed of the workload worlds; see record.
const worldSeed = 1

// recordFleet records the first n instances of the default fleet, one
// simulator per core.
func recordFleet(sz sizes, seed int64, dir string, n int) (*input, error) {
	specs := fleet.DefaultFleet(sz.instances, seed, sz.windows, sz.windowSec)[:n]
	worlds := fleet.DefaultFleet(sz.instances, worldSeed, sz.windows, sz.windowSec)
	in := &input{sz: sz, dir: dir, recs: make([]*recording, n)}
	errs := make([]error, n)
	parallel.ForEach(0, n, func(i int) {
		in.recs[i], errs[i] = record(specs[i], worlds[i].Seed)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// writeLogFiles writes every recording to disk, even instances in the
// trace codec and odd ones as a MySQL slow log, and points in.files at
// them.
func (in *input) writeLogFiles() error {
	logDir := filepath.Join(in.dir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	in.files = make([]instanceInput, len(in.recs))
	errs := make([]error, len(in.recs))
	parallel.ForEach(0, len(in.recs), func(i int) {
		rec := in.recs[i]
		fi := instanceInput{id: rec.id, windowSec: rec.windowSec, windows: rec.windows}
		seconds := int64(rec.windows * rec.windowSec)
		var path, format string
		if i%2 == 0 {
			path, format = filepath.Join(logDir, rec.id+".trace.gz"), ingest.FormatTrace
			errs[i] = writeTraceFile(path, rec, seconds)
			fi.labels = rec.labels
		} else {
			// No labels: a slow log has no CPU or IOPS series, so which
			// injections its windows still show is not ground truth.
			path, format = filepath.Join(logDir, rec.id+".slow.log.gz"), ingest.FormatSlowLog
			errs[i] = writeSlowLogFile(path, rec, seconds)
		}
		fi.open = func() (ingest.Source, error) { return ingest.Open(path, format, ingest.OpenOptions{}) }
		in.files[i] = fi
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wideCase is the diagnose-wide input: one anomaly case over one wide
// window, built through the real collector and detector.
type wideCase struct {
	c       *anomaly.Case
	frame   *window.Frame
	records int64
	truth   map[sqltemplate.ID]bool
}

// wideDraws is how many times setupWide draws the wide case before it takes
// the one it has.
const wideDraws = 6

// wideConfig is how diagnose-wide calls DiagnoseFrame.
func wideConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Workers = 1
	return cfg
}

// setupWide draws the wide case from the seed until it is one whose first
// selection of clusters survives History Trend Verification. On about one
// seed in ten the cluster of largest impact holds only victims of the lock
// storm; rootcause.Identify then verifies every template of the window
// instead of a handful, which allocates 200 MB a call instead of 120 and
// takes a sixth longer, for the same ranking. Left in, that is two
// populations of seeds under one metric name, and their mix, not the code,
// decides the spread of ten seeds. A redrawn case costs one more set-up, which
// setup_s shows.
func setupWide(sz sizes, seed int64, dir string) (*input, error) {
	for draw := 0; ; draw++ {
		in, err := drawWide(sz, seed+int64(draw)*1_000_003, dir)
		if err != nil {
			return nil, err
		}
		root := core.DiagnoseFrame(in.wide.c, in.wide.frame, wideConfig()).Root
		widened := false
		for _, cand := range root.Ranked {
			widened = widened || cand.Cluster >= root.Selected
		}
		if !widened {
			return in, nil
		}
		if draw+1 == wideDraws {
			fmt.Printf("diagnose-wide: WARNING: %d draws from seed %d all widen verification to every template; measuring the last\n", wideDraws, seed)
			return in, nil
		}
		fmt.Printf("diagnose-wide: draw %d from seed %d widens verification to every template; drawing again\n", draw, seed)
	}
}

// drawWide records one instance whose single window carries wideTemplates
// templates and a lock storm near its end, collects it, and detects the
// phenomenon — the shape of cases.GenerateOne's lock-storm family, kept as
// a recording so the traced run can drive every layer over the same stream.
func drawWide(sz sizes, seed int64, dir string) (*input, error) {
	endMs := int64(sz.wideSec) * 1000
	asMs := int64(sz.wideSec-sz.wideAnomalySec-60) * 1000
	aeMs := asMs + int64(sz.wideAnomalySec)*1000
	build := func(seed int64) (*workload.World, dbsim.Config) {
		world := workload.DefaultWorld(seed)
		// The default world has 23 templates of its own.
		world.AddFillerServices((sz.wideTemplates-23)/25, 25)
		cfg := dbsim.DefaultConfig()
		cfg.Seed = seed
		return world, cfg
	}
	var injected workload.Anomaly
	rec, err := record(fleet.InstanceSpec{
		ID: "wide", Seed: seed, Windows: 1, WindowSec: sz.wideSec,
		Setup: build,
		Inject: func(w *workload.World, _ int, _, _ int64) string {
			injected = w.InjectLockStorm(w.Services[2], "orders", 7, asMs, aeMs)
			return "lock_storm"
		},
	}, worldSeed)
	if err != nil {
		return nil, err
	}

	coll := collect.NewCollector(rec.id, 0, endMs, nil, nil)
	rows, _, err := ingest.NewPlayer(rec.source(1)).PlayWindow(0, endMs, coll.Sink())
	if err != nil {
		return nil, err
	}
	coll.IngestMetricsAt(rows)
	fr := coll.Frame()
	per := core.NewPerception(anomaly.Config{}, nil)
	per.ObserveFrame(fr)
	var ph anomaly.Phenomenon
	best := 0
	for _, p := range per.Phenomena() {
		if o := min(p.End, int(aeMs/1000)) - max(p.Start, int(asMs/1000)); o > best {
			best, ph = o, p
		}
	}
	if best == 0 {
		return nil, fmt.Errorf("diagnose-wide: the injected lock storm over [%d, %d)s was not detected", asMs/1000, aeMs/1000)
	}
	c := anomaly.NewCase(collect.SnapshotOfFrame(fr), ph)
	// One history window, as History Trend Verification needs: the same
	// world without the injection, with fresh arrival noise.
	pristine, _ := build(worldSeed)
	c.History = []anomaly.HistoryWindow{{DaysAgo: 1, Counts: pristine.CountArrivals(0, endMs, seed+101)}}

	wc := &wideCase{c: c, frame: fr, records: coll.Records(), truth: map[sqltemplate.ID]bool{}}
	for _, id := range injected.RSQLs {
		wc.truth[id] = true
	}
	return &input{sz: sz, dir: dir, recs: []*recording{rec}, wide: wc}, nil
}

// result is one run of one workload.
type result struct {
	attempted, failed int
	// timingFailed counts, within failed, the checks on the harness's own
	// timing (generator lateness, trace coverage) rather than on outputs.
	timingFailed int
	failures     []string
	e2e          map[string]sample // end-to-end metrics; see addRegion for which are scaled
	layer        map[string]sample
}

func newResult() *result {
	return &result{e2e: map[string]sample{}, layer: map[string]sample{}}
}

// check counts one output check and records its message when it failed.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// checkTiming is check for a property of the harness's timing: it fails the
// run like any other, but a loaded machine can cause it, so the smoke test
// does not assert it.
func (r *result) checkTiming(ok bool, format string, args ...any) {
	if !ok {
		r.timingFailed++
	}
	r.check(ok, format, args...)
}

// region is one timed stretch of work: a fleet pass, or a block of
// DiagnoseFrame calls.
type region struct {
	windows    int
	records    int64
	wall, cpu  time.Duration
	allocBytes uint64
	latMs      sample
}

func (st *passStats) region() region {
	return region{windows: st.committed, records: st.records, wall: st.wall, cpu: st.cpu, allocBytes: st.allocBytes, latMs: st.lagMs}
}

// addRegion appends one region's end-to-end samples. slow is how much
// slower than nominal the host ran around the region (see hostspeed.go):
// times are divided by it and rates multiplied, so they read at reference
// host speed. A region that was not bracketed passes 1 and reads as measured.
func (r *result) addRegion(g region, slow float64) {
	n := float64(g.windows)
	add := func(name string, v float64) { r.e2e[name] = append(r.e2e[name], v) }
	add("windows_per_s", n/g.wall.Seconds()*slow)
	add("records_per_s", float64(g.records)/g.wall.Seconds()*slow)
	add("cpu_ms_per_window", ms(g.cpu)/n/slow)
	add("alloc_mb_per_window", float64(g.allocBytes)/(1<<20)/n)
	for _, l := range g.latMs {
		add("latency_ms_p50", l/slow)
	}
	r.layer["latency_ms_p90"] = r.e2e["latency_ms_p50"]
}

// addFleetLayers records what a pass showed about the fleet's own layers.
func (r *result) addFleetLayers(st *passStats) {
	add := func(name string, v float64) { r.layer[name] = append(r.layer[name], v) }
	for s, stage := range stageNames {
		add("fleet.stage_"+stage+"_ms_per_window", st.stageMs[s])
	}
	add("fleet.journal_windows_per_fsync", st.windowsPerFsync)
	add("fleet.shed_ratio", float64(st.shed)/float64(st.scheduled))
	add("fleet.peak_queue", float64(st.peakQueue))
	add("fleet.broker_dropped", float64(st.dropped))
	add("ingest.parse_error_ratio", float64(st.parseErrors)/float64(max(st.records, 1)))
	add("shard.window_skew", st.windowSkew)
	add("shard.report_merge_ms", st.reportMergeMs)
	add("obs.scrape_ms", st.scrapeMs)
	add("bench.gen_late_ms_max", st.lateMs)
}

// checkDetection requires that the pipeline still sees what was injected.
func (r *result) checkDetection(st *passStats) {
	r.check(st.injected > 0 && float64(st.detected) >= 0.9*float64(st.injected),
		"%d of %d windows recorded with an injection report an anomaly", st.detected, st.injected)
}

// gcCPUSeconds is the CPU time the garbage collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// gcMeter measures bench.gc_cpu_fraction over a stretch: the garbage
// collector's share of the process's CPU time.
type gcMeter struct {
	gc  float64
	cpu time.Duration
}

func startGCMeter() gcMeter { return gcMeter{gc: gcCPUSeconds(), cpu: cpuTime()} }

func (m gcMeter) stop(res *result) {
	res.layer["bench.gc_cpu_fraction"] = sample{(gcCPUSeconds() - m.gc) / (cpuTime() - m.cpu).Seconds()}
}

// runClosed measures a closed-loop fleet workload: one warm-up pass, then
// fresh-fleet passes until `seconds` have gone by. Every pass replays the
// same streams, so every pass must print the same report.
func runClosed(w *workloadDef, in *input, seconds float64, res *result) error {
	ins, cfg := w.fleet(in)
	first, err := runPass(ins, cfg)
	if err != nil {
		return err
	}
	gc := startGCMeter()
	host := newSpeedometer(refReps, res)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for passes := 0; passes == 0 || time.Now().Before(deadline); passes++ {
		st, err := runPass(ins, cfg)
		if err != nil {
			return err
		}
		res.addRegion(st.region(), host.lap())
		res.checkPass(st, first)
		res.addFleetLayers(st)
	}
	gc.stop(res)
	if in.files == nil {
		res.checkDetection(first)
		return nil
	}
	return checkLogsOracle(in, first, res)
}

// checkLogsOracle is the cross-path check of fleet-logs: an instance read
// back from its trace-codec file must report exactly what the same
// recording reports when replayed from memory.
func checkLogsOracle(in *input, logs *passStats, res *result) error {
	var codec []*recording
	for i, rec := range in.recs {
		if i%2 == 0 {
			codec = append(codec, rec)
		}
	}
	mem, err := runPass(replayInputs(codec, in.sz.windows), fleetConfig{shards: 1, workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return err
	}
	res.checkDetection(mem)
	for _, rec := range codec {
		res.check(mem.instReport[rec.id] == logs.instReport[rec.id],
			"%s: report from the trace file differs from the in-memory replay's", rec.id)
	}
	return nil
}

// runPaced measures the open-loop durable workload: a short closed-loop
// warm-up on its own data directory, then one paced pass of about
// `seconds`, then a restart on the data the pass left behind.
func runPaced(w *workloadDef, in *input, seconds float64, res *result) error {
	_, cfg := w.fleet(in)
	warm := cfg
	warm.dataDir += "-warmup"
	if _, err := runPass(replayInputs(in.recs, in.sz.windows), warm); err != nil {
		return err
	}

	cfg.perSec = time.Duration(float64(time.Second) / in.sz.pacedSpeed)
	period := time.Duration(in.sz.windowSec) * cfg.perSec
	windows := max(2, int(seconds/period.Seconds()))
	ins := replayInputs(in.recs, windows)
	gc := startGCMeter()
	st, err := runPass(ins, cfg)
	if err != nil {
		return err
	}
	gc.stop(res)
	// As measured: the schedule fixes the rates, the journal's fsync does not
	// follow CPU speed, and the pass is too long to bracket — a reference
	// sampled during it would run inside the region it is there to correct.
	res.addRegion(st.region(), 1)
	res.checkPass(st, st)
	res.checkDetection(st)
	res.addFleetLayers(st)
	// The generator is part of the harness. Lag is measured from when a
	// window was due, so a late generator inflates it rather than hiding
	// it; past a tenth of a window period the schedule offered was not the
	// one claimed, and the run's lag numbers should not be trusted.
	fmt.Printf("fleet-paced: %d windows per instance, one every %.0f ms; the generator ran at most %.2f ms late\n", windows, ms(period), st.lateMs)
	if st.lateMs > ms(period)/10 {
		fmt.Printf("fleet-paced: WARNING: generator lateness is above a tenth of the window period\n")
	}

	took, report, err := reopen(ins, cfg)
	if err != nil {
		return err
	}
	res.check(report == st.report, "report after reopening the data directory differs from the one before closing it")
	res.layer["fleet.restart_ms"] = sample{ms(took)}
	bytes, err := dirBytes(cfg.dataDir)
	if err != nil {
		return err
	}
	res.layer["fleet.disk_bytes_per_record"] = sample{float64(bytes) / float64(st.records)}
	return nil
}

// runDiagnose measures diagnose-wide: warm-up calls, then DiagnoseFrame on
// the one wide case, sequentially, until `seconds` have gone by. Every call
// must rank the same templates, a true root cause among the first two.
func runDiagnose(w *workloadDef, in *input, seconds float64, res *result) error {
	wc := in.wide
	cfg := wideConfig()
	var first []sqltemplate.ID
	for i := 0; i < 3; i++ {
		first = core.DiagnoseFrame(wc.c, wc.frame, cfg).RSQLIDs()
	}
	hit := false
	for i := 0; i < len(first) && i < 2; i++ {
		hit = hit || wc.truth[first[i]]
	}
	res.check(hit, "no injected root cause among the first two R-SQLs %v", first)

	// Every call is its own region, scaled by the host's speed just before
	// and just after it: the host changes speed within a second, and on 240 s
	// of calls scaling call by call left a third of the spread that scaling
	// in blocks of four did.
	calls := 0
	same := true
	gc := startGCMeter()
	host := newSpeedometer(refRepsShort, res)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for calls == 0 || time.Now().Before(deadline) {
		u0 := readUsage()
		d := core.DiagnoseFrame(wc.c, wc.frame, cfg)
		took := time.Since(u0.wall)
		u1 := readUsage()
		same = same && reflect.DeepEqual(d.RSQLIDs(), first)
		res.addRegion(region{
			windows: 1, records: wc.records,
			wall: took, cpu: u1.cpu - u0.cpu, allocBytes: u1.alloc - u0.alloc,
			latMs: sample{ms(took)},
		}, host.lap())
		calls++
	}
	gc.stop(res)
	res.attempted += calls
	res.check(same, "R-SQL ranking changed between calls")
	return nil
}
