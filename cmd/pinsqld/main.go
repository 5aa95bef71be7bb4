// Command pinsqld is the autonomous diagnosing daemon: it monitors one or
// many (simulated) cloud database instances through the full PinSQL
// pipeline — streaming collection a trace second at a time, windowed aggregation,
// round-the-clock anomaly detection, diagnosis on detection, and
// (optionally) automatic repairing actions — mirroring the production
// deployment of Fig. 2, where one diagnosis cluster multiplexes a fleet
// of RDS instances.
//
// Each monitoring window simulates `-window` seconds of instance time; a
// deterministic incident rotation injects an anomaly every other window so
// the pipeline has work.
//
// With -data-dir every instance's query-log store (internal/logstore/segment)
// and the committed-window journal, which also holds the templates the
// stored records name, live on disk: a restart — even after SIGKILL — resumes every instance at its last
// committed window and runs the remainder of its `-windows` target,
// reproducing the uninterrupted run byte for byte. Without it no raw log is
// kept, and reports stay in memory.
//
// With -serve the process exposes an HTTP control plane (fleet status,
// per-instance diagnoses, Prometheus metrics — including per-stage
// pinsql_stage_duration_seconds summaries for collect/detect/diagnose/
// commit — and pprof) and runs until
// SIGTERM/SIGINT, which triggers a graceful drain: queued windows are
// diagnosed and committed, durable topics are sealed, and the process
// exits 0.
//
// With -shards K the fleet is hash-partitioned across K fully independent
// scheduler/store shards — each with its own worker pool, its own durable
// stores under -data-dir/shard-<k>/, and its own group-committed window
// journal — behind one aggregating control plane (GET /shards shows the
// per-shard rollups). The report stays byte-identical for every shard
// count; 0 picks GOMAXPROCS, and a durable layout pins the count it was
// created with.
//
// With -role coordinator every shard runs as a separate supervised
// worker process (this binary, relaunched with its config in the
// environment) speaking a small versioned HTTP/JSON worker API; the
// parent process is a pure fan-out control plane. A SIGKILLed worker is
// relaunched and resumes from its own data-dir/shard-<k>/ journal; the
// aggregated report stays byte-identical to in-process mode.
//
// With -ingest the daemon monitors a recorded trace instead of the
// simulator: a MySQL slow query log, a pg_stat_activity-style wait-event
// sample stream, or a pinsql trace file (gzip detected automatically,
// format guessed from the name unless -ingest-format says otherwise).
// The recording is replayed through the identical pipeline — windowed,
// detected, diagnosed — and the run ends when the trace does.
//
// Usage:
//
//	pinsqld -windows 6 -window 1200 -auto-repair
//	pinsqld -data-dir /var/lib/pinsql -windows 6     # durable, resumable
//	pinsqld -instances 8 -serve :8080                # fleet + control plane
//	pinsqld -ingest slow.log.gz -ingest-format slowlog
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pinsql/internal/fleet"
	"pinsql/internal/ingest"
	"pinsql/internal/shard"
	"pinsql/internal/shard/remote"
)

func main() {
	// A coordinator relaunches this binary with the worker config in the
	// environment; such a process is a worker no matter its argv.
	remote.MaybeWorker()

	var (
		instances  = flag.Int("instances", 1, "number of simulated instances to monitor")
		windows    = flag.Int("windows", 4, "monitoring windows each instance should have committed in total (a restarted run finishes the remainder)")
		windowSec  = flag.Int("window", 1200, "window length in simulated seconds")
		seed       = flag.Int64("seed", 42, "simulation seed")
		autoRepair = flag.Bool("auto-repair", false, "execute suggested repairing actions")
		shards     = flag.Int("shards", 1, "independent scheduler/store shards; instances are hash-partitioned across them (0 = GOMAXPROCS; a durable layout keeps the count it was created with)")
		workers    = flag.Int("workers", 0, "total scheduler workers split across shards (0 = GOMAXPROCS, 1 = sequential)")
		queueDepth = flag.Int("queue-depth", 8, "staged windows per instance before diagnosis shedding")
		dataDir    = flag.String("data-dir", "", "directory for the durable per-instance stores (empty = no raw log; reports stay in memory)")
		syncEvery  = flag.Int("sync-every", 0, "fsync the log-store wal every N records (0 = only at seal/close; process-crash safe either way)")
		serve      = flag.String("serve", "", "address for the HTTP control plane (empty = run to completion and exit)")
		role       = flag.String("role", "", "process role: \"\" runs shards in-process, \"coordinator\" runs one supervised pinsqld worker process per shard")

		ingestPath   = flag.String("ingest", "", "replay a recorded trace file instead of simulating (slow log, wait-event JSONL, or pinsql trace; .gz fine)")
		ingestFormat = flag.String("ingest-format", "", "trace format: slowlog, waitevents, or trace (empty = guess from the file name)")
		ingestSpeed  = flag.Float64("ingest-speed", 0, "pace trace replay against the wall clock at this factor (0 = as fast as possible)")
	)
	flag.Parse()

	// Ingest mode defaults differ where the simulator's do not fit:
	// recorded traces are minutes long, so windows default to 2 simulated
	// minutes and the run ends with the trace.
	windowSet, windowsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "window":
			windowSet = true
		case "windows":
			windowsSet = true
		}
	})
	if *ingestPath != "" {
		if !windowSet {
			*windowSec = 120
		}
		if !windowsSet {
			*windows = 0 // until the trace ends
		}
	}

	opt := shard.Options{
		Shards:     *shards,
		Workers:    *workers,
		QueueDepth: *queueDepth,
		DataDir:    *dataDir,
		SyncEvery:  *syncEvery,
	}
	ing := ingestConfig{path: *ingestPath, format: *ingestFormat, speed: *ingestSpeed}

	// The multi-process roles ship specs to workers as a serializable
	// recipe; trace-backed specs carry closures and cannot cross the
	// process boundary, so -ingest stays in-process.
	if *role != "" && ing.path != "" {
		fmt.Fprintln(os.Stderr, "pinsqld: -ingest runs in-process; drop -role")
		os.Exit(1)
	}
	specSet := remote.SpecSet{Seed: *seed, Windows: *windows, WindowSec: *windowSec, AutoRepair: *autoRepair}
	if *instances <= 1 {
		specSet.Single = "pinsqld"
	} else {
		specSet.Instances = *instances
	}

	switch *role {
	case "":
	case "coordinator":
		opt.Runtime = remote.Factory(remote.Options{Specs: specSet})
	default:
		fmt.Fprintf(os.Stderr, "pinsqld: unknown -role %q (want coordinator)\n", *role)
		os.Exit(1)
	}
	if err := run(specSet, opt, *serve, ing); err != nil {
		fmt.Fprintln(os.Stderr, "pinsqld:", err)
		os.Exit(1)
	}
}

type ingestConfig struct {
	path   string
	format string
	speed  float64
}

// traceSpec builds the trace-backed instance spec for -ingest: one
// instance, named after the file, replaying through the ingest stack.
func (c ingestConfig) traceSpec(windows, windowSec int) fleet.InstanceSpec {
	id := strings.TrimSuffix(filepath.Base(c.path), ".gz")
	if ext := filepath.Ext(id); ext != "" {
		id = strings.TrimSuffix(id, ext)
	}
	spec := fleet.TraceSpec(id, windowSec, func() (ingest.Source, error) {
		return ingest.Open(c.path, c.format, ingest.OpenOptions{Speed: c.speed})
	})
	spec.Windows = windows
	return spec
}

func run(specSet remote.SpecSet, opt shard.Options, serve string, ing ingestConfig) error {
	specs, err := specSet.Build()
	if err != nil {
		return err
	}
	if ing.path != "" {
		if specSet.AutoRepair {
			return fmt.Errorf("-auto-repair has no live database to act on in -ingest mode")
		}
		if specSet.Instances > 1 {
			return fmt.Errorf("-ingest replays one trace; drop -instances")
		}
		specs = []fleet.InstanceSpec{ing.traceSpec(specSet.Windows, specSet.WindowSec)}
	}

	// One progress line per committed window, as the scheduler drains.
	opt.OnCommit = func(id string, rep *fleet.WindowReport) {
		line := fmt.Sprintf("%s window %d [%d, %d)s: records=%d anomalies=%d",
			id, rep.Window, rep.FromMs/1000, rep.ToMs/1000, rep.Records, len(rep.Anomalies))
		if rep.Injected != "" {
			line += " injected=" + rep.Injected
		}
		if rep.Shed {
			line += " SHED"
		}
		fmt.Println(line)
	}

	m, err := shard.New(specs, opt)
	if err != nil {
		return err
	}
	if opt.Shards != 1 || m.Shards() != 1 {
		fmt.Printf("fleet of %d instances across %d shards (%d workers total)\n",
			len(specs), m.Shards(), m.Workers())
	}
	for _, is := range m.Status().Instances {
		if is.Committed > 0 {
			fmt.Printf("%s: recovered %d committed windows, resuming at window %d (shard %d)\n",
				is.ID, is.Committed, is.Committed, is.Shard)
		}
	}

	if serve == "" {
		m.Start()
		werr := m.Wait()
		rep, rerr := m.Report()
		fmt.Print(rep)
		if cerr := m.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = rerr
		}
		return werr
	}

	ln, err := net.Listen("tcp", serve)
	if err != nil {
		m.Close()
		return err
	}
	srv := &http.Server{Handler: m.Handler()}
	go srv.Serve(ln)
	fmt.Printf("control plane on http://%s (GET /fleet, /shards, /instances/{id}/diagnoses, /metrics, /debug/pprof/)\n", ln.Addr())

	m.Start()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	// Serve until asked to stop — a finished fleet keeps its control plane
	// up so status, diagnoses, and metrics stay queryable.
	s := <-sig
	fmt.Printf("received %s, draining fleet\n", s)
	werr := m.Stop()
	rep, rerr := m.Report()
	fmt.Print(rep)
	if werr == nil {
		werr = rerr
	}
	// Close releases every shard engine — and, in multi-process mode, asks
	// each drained worker process to exit.
	if cerr := m.Close(); werr == nil {
		werr = cerr
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && werr == nil {
		werr = err
	}
	return werr
}
