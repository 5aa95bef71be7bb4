package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"pinsql/internal/fleet"
	"pinsql/internal/shard"
)

// Options configures the worker-process runtime factory.
type Options struct {
	// Specs is the serializable fleet recipe shipped to every worker
	// (each worker keeps only the instances Assign routes to its shard).
	Specs SpecSet

	// KillAt is the crash-injection hook, forwarded to each worker's
	// FIRST spawn only — a respawned worker never inherits it, so a
	// kill-at test cannot crash-loop.
	KillAt string
}

const (
	// readyTimeout bounds one worker's spawn-to-ready window (address file
	// published and the /ready handshake answered).
	readyTimeout = 60 * time.Second

	// maxRestarts caps how many times one shard's worker is relaunched
	// after unexpected exits before the runtime gives up.
	maxRestarts = 16
)

// SelfCommand relaunches the current binary as a worker: same executable,
// EnvConfig carrying the JSON config. MaybeWorker on the child side picks
// it up before anything else runs, so the binary must call it first thing
// in main. Every worker is launched this way.
func SelfCommand(cfg Config) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), EnvConfig+"="+encodeConfig(cfg))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd
}

// Factory returns the shard.RuntimeFactory that runs every shard as a
// supervised pinsqld worker process. Drop it into shard.Options.Runtime
// and the Manager becomes a multi-process coordinator; everything else —
// partition, worker split, merge order, report bytes — stays identical
// to in-process mode.
func Factory(opt Options) shard.RuntimeFactory {
	return func(sh, shards int, specs []fleet.InstanceSpec, fopt fleet.Options) (shard.Runtime, error) {
		return newRuntime(sh, shards, specs, fopt, opt)
	}
}

// Runtime supervises one shard's worker process: spawn (or adopt),
// readiness handshake, restart-on-crash, and the HTTP/JSON calls behind
// every shard.Runtime method. All coordination runs through one mutex +
// cond; blocking API calls (Wait, drain) re-resolve the worker address
// after every respawn.
type Runtime struct {
	cfg    Config
	ids    []string // expected owned instance IDs, sorted
	tmpDir string   // addr-file temp dir to remove at Close ("" = none)

	client     *http.Client // bounded calls: ready/status/report/metrics
	longClient *http.Client // unbounded calls: wait/drain

	mu        sync.Mutex
	cond      *sync.Cond
	addr      string
	cmd       *exec.Cmd // nil when the worker was adopted, not spawned
	adoptPid  int
	started   bool // Start() was called; respawns auto-start
	drained   bool // Stop() completed; respawns stay idle
	closing   bool
	down      bool // worker dead, respawn in flight
	restarts  int
	permErr   error // supervision gave up; every call fails with this
	superDone chan struct{}

	statMu sync.Mutex
	stat   statusDoc
	statAt time.Time
}

func newRuntime(sh, shards int, specs []fleet.InstanceSpec, fopt fleet.Options, opt Options) (*Runtime, error) {
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = sp.ID
	}
	sort.Strings(ids)

	// A worker opens the shard's data directory the manager resolved, and
	// publishes its address beside it, where a restarted coordinator finds
	// (and adopts) it. Without one the shard keeps no raw log, the address
	// file lives in a temp directory, and adoption across coordinator
	// restarts is off.
	addrDir, tmpDir := filepath.Dir(fopt.DataDir), ""
	if fopt.DataDir == "" {
		d, err := os.MkdirTemp("", "pinsql-remote-")
		if err != nil {
			return nil, err
		}
		addrDir, tmpDir = d, d
	}

	r := &Runtime{
		cfg: Config{
			APIVersion: APIVersion,
			Shard:      sh,
			Shards:     shards,
			Specs:      opt.Specs,
			Workers:    fopt.Workers,
			QueueDepth: fopt.QueueDepth,
			SyncEvery:  fopt.SyncEvery,
			DataDir:    fopt.DataDir,
			AddrFile:   filepath.Join(addrDir, fmt.Sprintf("worker-%d.addr", sh)),
			KillAt:     opt.KillAt,
		},
		ids:        ids,
		tmpDir:     tmpDir,
		client:     &http.Client{Timeout: 30 * time.Second},
		longClient: &http.Client{},
		superDone:  make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)

	// A live worker from a previous coordinator? Adopt it instead of
	// spawning a duplicate over the same shard directory.
	if addr, pid, err := readAddrFile(r.cfg.AddrFile); err == nil {
		if r.handshake(addr) == nil {
			r.addr, r.adoptPid = addr, pid
			go r.supervise()
			return r, nil
		}
		// Stale file: a half-dead worker must not keep the shard's
		// stores open while a fresh one starts over them.
		_ = syscall.Kill(pid, syscall.SIGKILL)
		_ = os.Remove(r.cfg.AddrFile)
	}

	if err := r.spawn(true); err != nil {
		r.cleanupTmp()
		return nil, err
	}
	go r.supervise()
	return r, nil
}

// spawn launches a worker process and blocks until its readiness
// handshake passes. withKill forwards the KillAt hook (first spawn only).
func (r *Runtime) spawn(withKill bool) error {
	cfg := r.cfg
	if !withKill {
		cfg.KillAt = ""
	}
	_ = os.Remove(cfg.AddrFile)
	cmd := SelfCommand(cfg)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("spawn worker %d: %w", r.cfg.Shard, err)
	}

	addr, err := r.awaitReady(cfg.AddrFile, cmd)
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return err
	}

	r.mu.Lock()
	r.cmd, r.adoptPid, r.addr = cmd, 0, addr
	started, drained := r.started, r.drained
	r.mu.Unlock()

	// A respawned worker resumes where its journal left off — but only
	// if the coordinator had started the fleet (and has not drained it).
	if started && !drained {
		_ = r.post(addr, "/api/v1/start")
	}
	return nil
}

// awaitReady polls for the worker's address file, then validates the
// /ready handshake: API version, shard coordinates, and the exact owned
// instance IDs. cmd (optional) lets the poll fail fast if the child dies
// before publishing.
func (r *Runtime) awaitReady(addrFile string, cmd *exec.Cmd) (string, error) {
	deadline := time.Now().Add(readyTimeout)
	var lastErr error
	for time.Now().Before(deadline) {
		if cmd != nil && cmd.ProcessState != nil {
			return "", fmt.Errorf("worker %d exited before ready", r.cfg.Shard)
		}
		addr, _, err := readAddrFile(addrFile)
		if err == nil {
			if err := r.handshake(addr); err == nil {
				return addr, nil
			} else {
				lastErr = err
			}
		} else {
			lastErr = err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return "", fmt.Errorf("worker %d not ready after %s: %w", r.cfg.Shard, readyTimeout, lastErr)
}

// handshake validates GET /ready against what this coordinator expects.
func (r *Runtime) handshake(addr string) error {
	cl := &http.Client{Timeout: 2 * time.Second}
	resp, err := cl.Get("http://" + addr + "/api/v1/ready")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var doc readyDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return fmt.Errorf("worker %d: bad ready document: %w", r.cfg.Shard, err)
	}
	if doc.Version != APIVersion {
		return fmt.Errorf("worker %d speaks API v%d, coordinator v%d", r.cfg.Shard, doc.Version, APIVersion)
	}
	if doc.Shard != r.cfg.Shard || doc.Shards != r.cfg.Shards {
		return fmt.Errorf("worker at %s identifies as shard %d/%d, want %d/%d",
			addr, doc.Shard, doc.Shards, r.cfg.Shard, r.cfg.Shards)
	}
	if len(doc.IDs) != len(r.ids) {
		return fmt.Errorf("worker %d owns %d instances, want %d", r.cfg.Shard, len(doc.IDs), len(r.ids))
	}
	for i, id := range r.ids {
		if doc.IDs[i] != id {
			return fmt.Errorf("worker %d owns %q at %d, want %q", r.cfg.Shard, doc.IDs[i], i, id)
		}
	}
	return nil
}

// supervise is the restart loop: block until the worker dies (cmd.Wait
// for spawned workers, health polling for adopted ones), then relaunch it
// unless the runtime is closing. A relaunched worker reopens its journal
// and — when the fleet had been started — resumes the remaining windows.
func (r *Runtime) supervise() {
	defer close(r.superDone)
	for {
		r.mu.Lock()
		cmd, closing := r.cmd, r.closing
		r.mu.Unlock()
		if closing {
			return
		}

		if cmd != nil {
			_ = cmd.Wait()
		} else if !r.pollAdopted() {
			return // closing
		}

		r.mu.Lock()
		if r.closing {
			r.mu.Unlock()
			return
		}
		r.down = true
		r.restarts++
		give := r.restarts > maxRestarts
		r.cond.Broadcast()
		r.mu.Unlock()

		var err error
		if give {
			err = fmt.Errorf("worker %d: gave up after %d restarts", r.cfg.Shard, r.restarts-1)
		} else {
			err = r.spawn(false)
		}
		r.mu.Lock()
		if err != nil {
			r.permErr = err
		} else {
			r.down = false
		}
		r.cond.Broadcast()
		closing = r.closing
		fresh, addr := r.cmd, r.addr
		r.mu.Unlock()
		if err != nil {
			return
		}
		if closing {
			// Close ran while the respawn was in flight: it never saw
			// this process, so quitting it is on us.
			_ = r.post(addr, "/api/v1/quit")
			if fresh != nil {
				done := make(chan struct{})
				go func() { _ = fresh.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					_ = fresh.Process.Kill()
					<-done
				}
			}
			return
		}
	}
}

// pollAdopted health-checks an adopted worker (no child handle to wait
// on) until it stops answering. Returns false when the runtime closed.
func (r *Runtime) pollAdopted() bool {
	fails := 0
	for {
		time.Sleep(250 * time.Millisecond)
		r.mu.Lock()
		addr, closing := r.addr, r.closing
		r.mu.Unlock()
		if closing {
			return false
		}
		if r.handshake(addr) != nil {
			if fails++; fails >= 2 {
				return true
			}
		} else {
			fails = 0
		}
	}
}

// liveAddr blocks until the worker is up (waiting out a respawn) and
// returns its address, or the reason it never will be.
func (r *Runtime) liveAddr() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.down && r.permErr == nil && !r.closing {
		r.cond.Wait()
	}
	if r.permErr != nil {
		return "", r.permErr
	}
	if r.closing {
		return "", errors.New("remote: runtime closed")
	}
	return r.addr, nil
}

// getJSON performs a bounded GET with respawn-aware retries.
func (r *Runtime) getJSON(path string, v any) error {
	deadline := time.Now().Add(readyTimeout)
	var lastErr error
	for {
		addr, err := r.liveAddr()
		if err != nil {
			return err
		}
		resp, err := r.client.Get("http://" + addr + path)
		if err == nil {
			if resp.StatusCode == http.StatusOK {
				err = json.NewDecoder(resp.Body).Decode(v)
				resp.Body.Close()
				return err
			}
			resp.Body.Close()
			err = fmt.Errorf("worker %d: %s returned %s", r.cfg.Shard, path, resp.Status)
		}
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("worker %d: %s: %w", r.cfg.Shard, path, lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// post performs a bounded POST to one endpoint (no retries — callers
// that need them loop themselves).
func (r *Runtime) post(addr, path string) error {
	resp, err := r.client.Post("http://"+addr+path, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var doc errDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return err
	}
	if doc.Error != "" {
		return errors.New(doc.Error)
	}
	return nil
}

// Start marks the fleet started and kicks the worker. If the worker is
// mid-respawn the flag is enough: every (re)spawn auto-starts a started
// fleet.
func (r *Runtime) Start() {
	r.mu.Lock()
	r.started = true
	addr, down := r.addr, r.down
	r.mu.Unlock()
	if !down {
		_ = r.post(addr, "/api/v1/start")
	}
}

// Wait long-polls /api/v1/wait until the shard settles. A worker death
// mid-poll is not an error — the supervisor respawns it, the journal
// replays, and Wait re-polls the fresh process until the fleet finishes
// the windows the crash interrupted.
func (r *Runtime) Wait() error {
	for {
		addr, err := r.liveAddr()
		if err != nil {
			return err
		}
		resp, err := r.longClient.Get("http://" + addr + "/api/v1/wait")
		if err == nil {
			var doc errDoc
			derr := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if derr == nil {
				if doc.Error != "" {
					return errors.New(doc.Error)
				}
				return nil
			}
		}
		// Transport failure: the worker died (or is dying). Let the
		// supervisor notice and respawn; liveAddr blocks until then.
		time.Sleep(50 * time.Millisecond)
	}
}

// Stop drains the worker's fleet: queued windows still diagnosed and
// committed, durable topics sealed. The worker process stays up — a
// drained shard keeps serving status, diagnoses, and its report fragment
// until Close.
func (r *Runtime) Stop() error {
	for {
		addr, err := r.liveAddr()
		if err != nil {
			return err
		}
		resp, err := r.longClient.Post("http://"+addr+"/api/v1/drain", "application/json", nil)
		if err == nil {
			var doc errDoc
			derr := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if derr == nil {
				r.mu.Lock()
				r.drained = true
				r.mu.Unlock()
				if doc.Error != "" {
					return errors.New(doc.Error)
				}
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Close asks the worker to exit, waits for it, and stops supervision.
func (r *Runtime) Close() error {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		<-r.superDone
		return nil
	}
	r.closing = true
	addr, cmd, adoptPid, down := r.addr, r.cmd, r.adoptPid, r.down
	r.cond.Broadcast()
	r.mu.Unlock()

	if !down {
		_ = r.post(addr, "/api/v1/quit")
	}
	if cmd != nil {
		// The supervisor owns cmd.Wait; give the worker a grace window,
		// then force it.
		select {
		case <-r.superDone:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-r.superDone
		}
	} else {
		<-r.superDone
		if adoptPid > 0 {
			// Poll the adopted worker out; it is not our child, so a
			// liveness probe is all we have.
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) && syscall.Kill(adoptPid, 0) == nil {
				time.Sleep(50 * time.Millisecond)
			}
			if syscall.Kill(adoptPid, 0) == nil {
				_ = syscall.Kill(adoptPid, syscall.SIGKILL)
			}
		}
	}
	_ = os.Remove(r.cfg.AddrFile)
	r.cleanupTmp()
	return nil
}

// Abandon detaches supervision without touching the worker process —
// the test seam for "coordinator crashed": workers keep running, the
// address files stay published, and a new coordinator can adopt them.
func (r *Runtime) Abandon() {
	r.mu.Lock()
	r.closing = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *Runtime) cleanupTmp() {
	if r.tmpDir != "" {
		_ = os.RemoveAll(r.tmpDir)
	}
}

// IDs returns the shard's owned instance IDs (validated against the
// worker at every handshake).
func (r *Runtime) IDs() []string {
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}

// Diagnoses fetches one instance's committed reports from the worker.
func (r *Runtime) Diagnoses(id string) ([]*fleet.WindowReport, bool) {
	var doc diagnosesDoc
	if err := r.getJSON("/api/v1/diagnoses?id="+id, &doc); err != nil {
		return nil, false
	}
	return doc.Reports, doc.OK
}

// Reports fetches the shard's whole report fragment in one round trip.
func (r *Runtime) Reports() (map[string][]*fleet.WindowReport, error) {
	out := make(map[string][]*fleet.WindowReport)
	if err := r.getJSON("/api/v1/report", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// status fetches (with a short cache, so one metrics scrape's seven
// series cost one round trip) the worker's combined status document.
func (r *Runtime) status() (statusDoc, error) {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	if !r.statAt.IsZero() && time.Since(r.statAt) < 50*time.Millisecond {
		return r.stat, nil
	}
	var doc statusDoc
	if err := r.getJSON("/api/v1/status", &doc); err != nil {
		return statusDoc{}, err
	}
	r.stat, r.statAt = doc, time.Now()
	return doc, nil
}

// Status snapshots the worker's fleet.Status.
func (r *Runtime) Status() (fleet.Status, error) {
	doc, err := r.status()
	return doc.Status, err
}

// JournalStats reports the worker journal's group-commit accounting.
func (r *Runtime) JournalStats() (batches, windows int64) {
	doc, err := r.status()
	if err != nil {
		return 0, 0
	}
	return doc.CommitBatches, doc.CommitBatchWindows
}

// MetricsText scrapes the worker's own registry for the coordinator's
// merged /metrics.
func (r *Runtime) MetricsText() (string, error) {
	addr, err := r.liveAddr()
	if err != nil {
		return "", err
	}
	resp, err := r.client.Get("http://" + addr + "/api/v1/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Up reports whether the supervised worker is currently running.
func (r *Runtime) Up() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.down && r.permErr == nil && !r.closing
}
