package remote

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"pinsql/internal/fleet"
	"pinsql/internal/obs"
	"pinsql/internal/shard"
)

// APIVersion is the worker API's version. The /ready handshake carries it
// and the coordinator refuses a worker that speaks a different version —
// a mixed-binary deployment fails loudly at spawn, not subtly at merge.
const APIVersion = 2

// EnvConfig is the environment variable a coordinator sets when spawning
// a worker: the JSON-encoded Config. A process that finds it set is a
// worker regardless of its argv (see MaybeWorker).
const EnvConfig = "PINSQL_WORKER_CONFIG"

// Config is everything a worker process needs to open its shard: which
// slice of the fleet it owns, the per-shard engine knobs the coordinator
// resolved for it, and where to report its address. It rides to the
// child in EnvConfig.
type Config struct {
	APIVersion int `json:"api_version"`

	// Shard / Shards locate this worker in the pinned Assign partition:
	// the worker rebuilds the full spec set and keeps exactly the
	// instances with Assign(id, Shards) == Shard.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`

	Specs SpecSet `json:"specs"`

	// Workers is this shard's already-split scheduler budget (the
	// coordinator runs the same split as in-process mode, so the worker
	// must not re-derive it).
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth,omitempty"`
	SyncEvery  int `json:"sync_every,omitempty"`

	// DataDir is the shard's data directory, as the manager resolved it
	// for the in-process runtime (fleet.Options.DataDir). "" keeps no raw
	// log.
	DataDir string `json:"data_dir,omitempty"`

	// AddrFile is where the worker, listening on an OS-picked loopback
	// port, publishes "host:port\npid\n" once it is ready to serve —
	// written to a temp name and renamed, so a reader never sees a torn
	// file.
	AddrFile string `json:"addr_file"`

	// KillAt is the crash-injection hook: "instance:window:phase" makes
	// the worker SIGKILL itself at that exact commit phase (see
	// fleet.Options.CrashAt). Supervision tests use it to die at every
	// phase; the coordinator never forwards it to a respawn.
	KillAt string `json:"kill_at,omitempty"`
}

func encodeConfig(cfg Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("remote: config not marshalable: %v", err))
	}
	return string(b)
}

// MaybeWorker turns the current process into a shard worker when
// EnvConfig is set, and never returns in that case. Every binary that
// spawns workers via SelfCommand must call it first thing in main (or
// TestMain) — before flag parsing, before anything that could differ
// between coordinator and worker.
func MaybeWorker() {
	raw := os.Getenv(EnvConfig)
	if raw == "" {
		return
	}
	var cfg Config
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "pinsql-worker: bad %s: %v\n", EnvConfig, err)
		os.Exit(2)
	}
	if err := runWorker(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "pinsql-worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runWorker opens the shard's fleet, publishes the address file, and
// serves the worker API until the coordinator posts /api/v1/quit. It is
// the whole worker main loop.
func runWorker(cfg Config) error {
	if cfg.APIVersion != APIVersion {
		return fmt.Errorf("worker speaks API v%d, config is v%d", APIVersion, cfg.APIVersion)
	}
	if cfg.Shards < 1 || cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
		return fmt.Errorf("bad shard index %d of %d", cfg.Shard, cfg.Shards)
	}
	all, err := cfg.Specs.Build()
	if err != nil {
		return err
	}
	var mine []fleet.InstanceSpec
	for _, sp := range all {
		if shard.Assign(sp.ID, cfg.Shards) == cfg.Shard {
			mine = append(mine, sp)
		}
	}

	reg := obs.NewRegistry()
	fopt := fleet.Options{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		DataDir:    cfg.DataDir,
		SyncEvery:  cfg.SyncEvery,
		Metrics:    reg,
		Labels:     []obs.Label{obs.L("shard", strconv.Itoa(cfg.Shard))},
		CrashAt:    killAtHook(cfg.KillAt),
	}
	flt, err := fleet.New(mine, fopt)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		flt.Close()
		return err
	}
	w := &workerServer{cfg: cfg, flt: flt, reg: reg, quit: make(chan struct{})}
	srv := &http.Server{Handler: w.mux()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if err := writeAddrFile(cfg.AddrFile, ln.Addr().String()); err != nil {
		flt.Close()
		ln.Close()
		return err
	}

	select {
	case <-w.quit:
		// Graceful exit: drain already ran (or the fleet never started);
		// Close is idempotent and a no-op after Stop.
		err := flt.Close()
		ln.Close()
		return err
	case err := <-serveErr:
		flt.Close()
		return fmt.Errorf("worker API server: %w", err)
	}
}

// killAtHook parses "instance:window:phase" into a fleet.CrashAt hook
// that SIGKILLs this process — a real kill -9, not a simulated one, so
// supervision tests exercise the same recovery path a production OOM
// kill would.
func killAtHook(spec string) func(id string, window int, phase string) bool {
	if spec == "" {
		return nil
	}
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) != 3 {
		return nil
	}
	wantWin, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil
	}
	return func(id string, window int, phase string) bool {
		if id != parts[0] || window != wantWin || phase != parts[2] {
			return false
		}
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: the signal is uncatchable
	}
}

// writeAddrFile publishes "host:port\npid\n" atomically (temp + rename).
func writeAddrFile(path, addr string) error {
	if path == "" {
		return fmt.Errorf("worker config names no addr file")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	body := addr + "\n" + strconv.Itoa(os.Getpid()) + "\n"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readAddrFile parses a published address file.
func readAddrFile(path string) (addr string, pid int, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 {
		return "", 0, fmt.Errorf("remote: torn addr file %s: %q", path, b)
	}
	pid, err = strconv.Atoi(lines[1])
	if err != nil {
		return "", 0, fmt.Errorf("remote: bad pid in %s: %q", path, lines[1])
	}
	return lines[0], pid, nil
}

// readyDoc is the GET /api/v1/ready handshake. The coordinator checks
// every field against what it expects before trusting the worker.
type readyDoc struct {
	Version int      `json:"version"`
	Shard   int      `json:"shard"`
	Shards  int      `json:"shards"`
	Pid     int      `json:"pid"`
	IDs     []string `json:"ids"`
}

// statusDoc is the GET /api/v1/status document: the shard's fleet.Status
// plus the journal's group-commit accounting, one round trip.
type statusDoc struct {
	Status             fleet.Status `json:"status"`
	CommitBatches      int64        `json:"commit_batches"`
	CommitBatchWindows int64        `json:"commit_batch_windows"`
}

// diagnosesDoc is the GET /api/v1/diagnoses?id= document.
type diagnosesDoc struct {
	OK      bool                  `json:"ok"`
	Reports []*fleet.WindowReport `json:"reports"`
}

// errDoc carries an operation result ("" = success) for the blocking
// endpoints (/wait, /drain).
type errDoc struct {
	Error string `json:"error"`
}

// workerServer is the worker-side API surface over one fleet shard.
type workerServer struct {
	cfg      Config
	flt      *fleet.Fleet
	reg      *obs.Registry
	start    sync.Once
	quit     chan struct{}
	quitOnce sync.Once
}

// mux wires the versioned worker API:
//
//	GET  /api/v1/ready      handshake (version, shard, pid, owned IDs)
//	POST /api/v1/start      launch the shard's scheduler (idempotent)
//	GET  /api/v1/wait       long-poll until the shard settles
//	GET  /api/v1/status     fleet.Status + journal group-commit stats
//	GET  /api/v1/report     report fragment: every owned instance's
//	                        committed windows, keyed by instance ID
//	GET  /api/v1/diagnoses  one instance's committed windows (?id=)
//	GET  /api/v1/metrics    the shard's own Prometheus exposition
//	POST /api/v1/drain      graceful drain (fleet.Stop), blocks
//	POST /api/v1/quit       acknowledge, then exit the process
func (w *workerServer) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/ready", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, readyDoc{
			Version: APIVersion,
			Shard:   w.cfg.Shard,
			Shards:  w.cfg.Shards,
			Pid:     os.Getpid(),
			IDs:     w.flt.IDs(),
		})
	})
	mux.HandleFunc("POST /api/v1/start", func(rw http.ResponseWriter, r *http.Request) {
		w.start.Do(w.flt.Start)
		writeJSON(rw, errDoc{})
	})
	mux.HandleFunc("GET /api/v1/wait", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, errDoc{Error: errString(w.flt.Wait())})
	})
	mux.HandleFunc("GET /api/v1/status", func(rw http.ResponseWriter, r *http.Request) {
		doc := statusDoc{Status: w.flt.Status()}
		doc.CommitBatches, doc.CommitBatchWindows = w.flt.JournalStats()
		writeJSON(rw, doc)
	})
	mux.HandleFunc("GET /api/v1/report", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, w.flt.Reports())
	})
	mux.HandleFunc("GET /api/v1/diagnoses", func(rw http.ResponseWriter, r *http.Request) {
		reps, ok := w.flt.Diagnoses(r.URL.Query().Get("id"))
		if reps == nil {
			reps = []*fleet.WindowReport{}
		}
		writeJSON(rw, diagnosesDoc{OK: ok, Reports: reps})
	})
	mux.HandleFunc("GET /api/v1/metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = w.reg.WritePrometheus(rw)
	})
	mux.HandleFunc("POST /api/v1/drain", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, errDoc{Error: errString(w.flt.Stop())})
	})
	mux.HandleFunc("POST /api/v1/quit", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, errDoc{})
		w.quitOnce.Do(func() { close(w.quit) })
	})
	return mux
}

func errString(err error) string {
	if err != nil {
		return err.Error()
	}
	return ""
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
