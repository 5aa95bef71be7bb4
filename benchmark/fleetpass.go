package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pinsql/internal/fleet"
	"pinsql/internal/ingest"
	"pinsql/internal/obs"
	"pinsql/internal/shard"
)

// instanceInput is one trace-backed instance of a fleet pass.
type instanceInput struct {
	id        string
	windowSec int
	windows   int
	// labels are the recorded injection labels; window w was recorded as
	// labels[w%len(labels)]. Nil when the stream carries no ground truth.
	labels []string
	open   func() (ingest.Source, error)
}

func (in instanceInput) label(window int) string {
	if len(in.labels) == 0 {
		return ""
	}
	return in.labels[window%len(in.labels)]
}

// replayInputs serves every recording from memory for `windows` windows.
func replayInputs(recs []*recording, windows int) []instanceInput {
	out := make([]instanceInput, len(recs))
	for i, rec := range recs {
		rec := rec
		out[i] = instanceInput{
			id: rec.id, windowSec: rec.windowSec, windows: windows, labels: rec.labels,
			open: func() (ingest.Source, error) { return rec.source(windows), nil },
		}
	}
	return out
}

// fleetConfig is how a workload runs the sharded fleet.
type fleetConfig struct {
	shards  int
	workers int
	dataDir string        // "" keeps stores and journal in memory
	perSec  time.Duration // wall time per trace second; 0 = closed loop
}

// passStats is everything one fleet pass measured, from outside the fleet.
type passStats struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	scheduled  int // windows the pass was asked to commit
	committed  int
	records    int64
	lagMs      sample // per committed window: commit minus last-second stamp
	lateMs     float64
	report     string
	instReport map[string]string // per instance, the block Report prints for it

	shed, dropped, parseErrors int64
	injected, detected         int // windows recorded with an injection label / of those, reporting an anomaly
	peakQueue                  int
	stageMs                    [4]float64 // collect, detect, diagnose, commit: mean wall ms per window
	windowsPerFsync            float64
	windowSkew                 float64 // max / mean committed windows per shard
	reportMergeMs, scrapeMs    float64
}

var stageNames = [4]string{"collect", "detect", "diagnose", "commit"}

// runPass builds a fresh fleet over ins, runs it to completion and closes
// it. The timed region is Start to Wait; everything read afterwards (status,
// stage summaries, the report) is outside it.
func runPass(ins []instanceInput, cfg fleetConfig) (*passStats, error) {
	clk := &clock{perSec: cfg.perSec}
	srcs := make([]*clockedSource, len(ins))
	idx := make(map[string]int, len(ins))
	specs := make([]fleet.InstanceSpec, len(ins))
	st := &passStats{instReport: map[string]string{}}
	maxWindows := 0
	for i, in := range ins {
		i, in := i, in
		idx[in.id] = i
		srcs[i] = &clockedSource{
			clk:       clk,
			windowSec: int64(in.windowSec),
			due:       make([]atomic.Int64, in.windows),
		}
		if cfg.perSec > 0 {
			// Stagger the instances evenly over one window period so the
			// fleet sees a steady stream of closes, not a burst of them.
			srcs[i].phase = time.Duration(i) * time.Duration(in.windowSec) * cfg.perSec / time.Duration(len(ins))
		}
		specs[i] = fleet.TraceSpec(in.id, in.windowSec, func() (ingest.Source, error) {
			src, err := in.open()
			if err != nil {
				return nil, err
			}
			srcs[i].Source = src
			return srcs[i], nil
		})
		specs[i].Windows = in.windows
		st.scheduled += in.windows
		if in.windows > maxWindows {
			maxWindows = in.windows
		}
	}

	var mu sync.Mutex
	reg := obs.NewRegistry()
	m, err := shard.New(specs, shard.Options{
		Shards:  cfg.shards,
		Workers: cfg.workers,
		// Closed-loop sources stage windows as fast as they can be read;
		// the default depth of 8 would shed the backlog instead of
		// measuring it.
		QueueDepth: maxWindows + 1,
		DataDir:    cfg.dataDir,
		Metrics:    reg,
		OnCommit: func(id string, rep *fleet.WindowReport) {
			commit := time.Since(clk.start)
			due := time.Duration(srcs[idx[id]].due[rep.Window].Load())
			mu.Lock()
			st.lagMs = append(st.lagMs, ms(commit-due))
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}

	u0 := readUsage()
	clk.start = u0.wall
	m.Start()
	werr := m.Wait()
	u1 := readUsage()
	if werr != nil {
		m.Close()
		return nil, werr
	}
	st.wall = u1.wall.Sub(u0.wall)
	st.cpu = u1.cpu - u0.cpu
	st.allocBytes = u1.alloc - u0.alloc
	st.lateMs = ms(time.Duration(clk.late.Load()))

	status := m.Status()
	st.committed = status.Committed
	st.shed = status.Shed
	for _, row := range status.Instances {
		st.records += row.Records
		st.dropped += row.Dropped
		if row.PeakQueue > st.peakQueue {
			st.peakQueue = row.PeakQueue
		}
	}
	for i, in := range ins {
		st.parseErrors += srcs[i].Stats().ParseErrors
		reps, _ := m.Diagnoses(in.id)
		var b strings.Builder
		fleet.FormatInstanceReport(&b, in.id, reps)
		st.instReport[in.id] = b.String()
		for _, rep := range reps {
			if in.label(rep.Window) == "" {
				continue
			}
			st.injected++
			if len(rep.Anomalies) > 0 {
				st.detected++
			}
		}
	}

	var batches, batchWindows int64
	maxShard := 0
	for sh, row := range m.ShardStatuses() {
		batches += row.CommitBatches
		batchWindows += row.CommitBatchWindows
		if row.Committed > maxShard {
			maxShard = row.Committed
		}
		for s, stage := range stageNames {
			_, sum := reg.Summary("pinsql_stage_duration_seconds", "",
				obs.L("stage", stage), obs.L("shard", strconv.Itoa(sh))).Value()
			st.stageMs[s] += sum * 1000
		}
	}
	if st.committed > 0 {
		for s := range st.stageMs {
			st.stageMs[s] /= float64(st.committed)
		}
		st.windowSkew = float64(maxShard) * float64(m.Shards()) / float64(st.committed)
	}
	if batches > 0 {
		st.windowsPerFsync = float64(batchWindows) / float64(batches)
	}

	t := time.Now()
	st.report, err = m.Report()
	st.reportMergeMs = ms(time.Since(t))
	if err != nil {
		m.Close()
		return nil, err
	}
	t = time.Now()
	_ = m.MetricsExposition()
	st.scrapeMs = ms(time.Since(t))

	if err := m.Stop(); err != nil {
		return nil, err
	}
	return st, nil
}

// reopen restarts a durable fleet on the data directory a finished pass
// left behind and returns how long it took until the recovered report was
// available, with that report.
func reopen(ins []instanceInput, cfg fleetConfig) (time.Duration, string, error) {
	specs := make([]fleet.InstanceSpec, len(ins))
	for i, in := range ins {
		specs[i] = fleet.TraceSpec(in.id, in.windowSec, in.open)
		specs[i].Windows = in.windows
	}
	start := time.Now()
	m, err := shard.New(specs, shard.Options{Shards: cfg.shards, Workers: cfg.workers, DataDir: cfg.dataDir})
	if err != nil {
		return 0, "", err
	}
	report, err := m.Report()
	took := time.Since(start)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	return took, report, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// checkPass applies the per-pass output checks every fleet workload shares.
func (r *result) checkPass(st *passStats, first *passStats) {
	r.attempted += st.scheduled
	if missing := st.scheduled - st.committed; missing > 0 {
		r.failed += missing
		r.failures = append(r.failures, fmt.Sprintf("%d of %d scheduled windows not committed", missing, st.scheduled))
	}
	r.check(st.shed == 0, "%d windows shed", st.shed)
	r.check(st.dropped == 0, "%d records dropped by the broker", st.dropped)
	r.check(st.parseErrors == 0, "%d parse errors", st.parseErrors)
	r.check(st.report == first.report, "report differs from the first pass's")
}
