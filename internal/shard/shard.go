// Package shard is the sharded fleet runtime: it partitions a fleet's
// instances across K fully independent per-shard engines behind a thin
// aggregating control plane — the single-process step toward the paper's
// cloud-scale deployment (one monitoring system over an entire RDS estate)
// and the first rung of the ROADMAP's multi-process distributed mode.
//
// Each shard is a complete fleet.Fleet: its own two-priority scheduler
// pool, its own per-instance segment stores and group-committed window
// journal rooted at data-dir/shard-<k>/ and its own repair module.
// Nothing is shared between shards on the hot path — no lock, no channel,
// no queue; the only cross-shard structures are the obs registry (atomic
// counters, series kept apart by a shard label) and the aggregation layer,
// which fans reads out and merges deterministically in instance-ID order.
//
// Instances map to shards by a pinned hash of their ID (Assign), so a
// restart with the same shard count finds every instance's data where the
// previous run left it; the shard count itself is persisted in the data
// directory and reopening with a different -shards value is an error, not
// a silent re-partition.
//
// Determinism contract: the aggregated fleet report is a pure function of
// (seed, instance) — byte-identical for every shard count, every worker
// count, and across SIGKILL-at-any-commit-phase restarts (each shard's
// journal recovers independently).
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pinsql/internal/fleet"
	"pinsql/internal/obs"
	"pinsql/internal/parallel"
)

// Options configures the sharded runtime. The per-shard knobs mirror
// fleet.Options; Workers and DataDir are fleet-wide and split/namespaced
// across shards by the manager.
type Options struct {
	// Shards is the number of independent scheduler/store shards. 0 picks
	// the persisted layout of DataDir when one exists, else GOMAXPROCS.
	// Reopening a data directory with a different explicit count fails.
	Shards int

	// Workers is the total scheduler worker budget across every shard,
	// split as evenly as the shard count allows (every shard gets at
	// least one). 0 = GOMAXPROCS. The aggregated report is byte-identical
	// for every value.
	Workers int

	// QueueDepth and SyncEvery are passed through to every shard's
	// fleet.Options.
	QueueDepth int
	SyncEvery  int

	// DataDir roots the durable layout: shard k keeps its instances'
	// segment stores and its window journal under DataDir/shard-<k>/, and
	// the manager persists the shard count in DataDir/SHARDS. "" keeps no
	// raw log, and reports stay in memory.
	DataDir string

	// Metrics receives every shard's series (kept apart by a shard
	// label) plus the manager's pinsql_shard_* aggregates; nil creates a
	// private registry.
	Metrics *obs.Registry

	// OnCommit, if set, is called after every committed window, from the
	// owning shard's scheduler.
	OnCommit func(id string, rep *fleet.WindowReport)

	// CrashAt is the crash-injection test hook, forwarded to every shard
	// (see fleet.Options.CrashAt). A fired hook kills only the shard it
	// fired in — to simulate a whole-process SIGKILL, fire in every shard.
	CrashAt func(id string, window int, phase string) bool

	// Runtime opens each shard's engine. Nil selects NewLocalRuntime (the
	// in-process fleet); remote.Factory runs the shard as a supervised
	// pinsqld worker process instead. The aggregated report is
	// byte-identical either way — that is the seam's contract.
	Runtime RuntimeFactory
}

// shardsFile persists the shard count inside DataDir so a restart cannot
// silently re-partition a durable layout.
const shardsFile = "SHARDS"

// Assign is the pinned instance→shard partition function: FNV-1a over the
// instance ID, reduced mod shards. It depends only on (id, shards) — never
// on the rest of the fleet — so adding or removing instances does not move
// the survivors' data, and a restart with the same shard count finds every
// topic where the previous run wrote it. Changing this function strands
// every existing durable layout; the regression test pins its outputs.
func Assign(id string, shards int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

// Manager runs K independent shards and aggregates them. Create with New,
// then Start/Wait/Stop/Close exactly like a fleet.Fleet.
type Manager struct {
	opt      Options
	runtimes []Runtime
	assign   map[string]int
	ids      []string // all instance IDs, sorted — the merge order
	workers  int      // resolved total across shards
	metrics  *obs.Registry
}

// New partitions the specs and opens every shard (recovering each shard's
// journal and stores independently in durable mode).
func New(specs []fleet.InstanceSpec, opt Options) (*Manager, error) {
	if len(specs) == 0 {
		return nil, errors.New("shard: no instance specs")
	}
	assign := make(map[string]int, len(specs))
	ids := make([]string, 0, len(specs))
	for _, s := range specs {
		if s.ID == "" {
			return nil, errors.New("shard: instance spec without ID")
		}
		if _, dup := assign[s.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate instance ID %q", s.ID)
		}
		assign[s.ID] = -1
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)

	k, err := resolveShards(opt)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		opt:     opt,
		assign:  assign,
		ids:     ids,
		workers: parallel.Resolve(opt.Workers),
		metrics: opt.Metrics,
	}
	if m.metrics == nil {
		m.metrics = obs.NewRegistry()
	}

	parts := make([][]fleet.InstanceSpec, k)
	for _, s := range specs {
		sh := Assign(s.ID, k)
		m.assign[s.ID] = sh
		parts[sh] = append(parts[sh], s)
	}

	open := opt.Runtime
	if open == nil {
		open = NewLocalRuntime
	}
	for sh := 0; sh < k; sh++ {
		fopt := fleet.Options{
			Workers:    m.shardWorkers(sh, k),
			QueueDepth: opt.QueueDepth,
			SyncEvery:  opt.SyncEvery,
			Metrics:    m.metrics,
			Labels:     []obs.Label{obs.L("shard", strconv.Itoa(sh))},
			OnCommit:   opt.OnCommit,
			CrashAt:    opt.CrashAt,
		}
		if opt.DataDir != "" {
			fopt.DataDir = filepath.Join(opt.DataDir, "shard-"+strconv.Itoa(sh))
		}
		rt, err := open(sh, k, parts[sh], fopt)
		if err != nil {
			for _, prev := range m.runtimes {
				prev.Close()
			}
			return nil, fmt.Errorf("shard %d: %w", sh, err)
		}
		m.runtimes = append(m.runtimes, rt)
	}
	m.registerMetrics()
	return m, nil
}

// shardWorkers splits the total worker budget: shard k gets its even share
// (the first Workers%K shards absorb the remainder), and never less than
// one — a shard is an independent engine and must be able to make progress
// on its own.
func (m *Manager) shardWorkers(sh, k int) int {
	w := m.workers/k + boolInt(sh < m.workers%k)
	if w < 1 {
		w = 1
	}
	return w
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// resolveShards picks the shard count: an explicit request must match any
// persisted layout; 0 adopts the persisted layout or GOMAXPROCS. Shard
// directories without the file that says how many there are refuse to
// open: re-partitioning them would strand the instances that moved.
func resolveShards(opt Options) (int, error) {
	req := opt.Shards
	if opt.DataDir == "" {
		if req <= 0 {
			req = parallel.Resolve(0)
		}
		return req, nil
	}
	if err := os.MkdirAll(opt.DataDir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(opt.DataDir, shardsFile)
	if b, err := os.ReadFile(path); err == nil {
		persisted, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr != nil || persisted < 1 {
			return 0, fmt.Errorf("shard: corrupt shard-count file %s: %q", path, b)
		}
		if req > 0 && req != persisted {
			return 0, fmt.Errorf("shard: -shards %d does not match the existing layout in %s (%d shards); a durable layout keeps the shard count it was created with", req, opt.DataDir, persisted)
		}
		return persisted, nil
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	if shards, _ := filepath.Glob(filepath.Join(opt.DataDir, "shard-*")); len(shards) > 0 {
		return 0, fmt.Errorf("shard: %s is missing but %s exists: the layout's shard count is unknown", path, shards[0])
	}
	if req <= 0 {
		req = parallel.Resolve(0)
	}
	if err := writeShardCount(opt.DataDir, req); err != nil {
		return 0, err
	}
	return req, nil
}

// writeShardCount persists the shard count as the durable layout's commit
// point, like the journals it governs: written to a temporary file,
// fsynced, renamed into place, and the directory fsynced — a crash leaves
// no shard-count file or a whole one, never an empty one.
func writeShardCount(dir string, k int) error {
	path := filepath.Join(dir, shardsFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.WriteString(strconv.Itoa(k) + "\n")
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// registerMetrics adds the per-shard aggregate series. Everything reads
// shard state at scrape time through the Runtime seam — nothing here
// touches the hot path. A remote shard whose worker is unreachable
// reports zeroes (and pinsql_shard_up 0) rather than failing the scrape.
func (m *Manager) registerMetrics() {
	for sh, rt := range m.runtimes {
		sh, rt := sh, rt
		lbl := obs.L("shard", strconv.Itoa(sh))
		status := func() fleet.Status {
			st, _ := rt.Status()
			return st
		}
		m.metrics.GaugeFunc("pinsql_shard_up", "Whether the shard's engine is running and reachable (always 1 in-process).", func() float64 {
			return float64(boolInt(rt.Up()))
		}, lbl)
		m.metrics.GaugeFunc("pinsql_shard_instances", "Instances assigned to the shard.", func() float64 {
			return float64(len(rt.IDs()))
		}, lbl)
		m.metrics.GaugeFunc("pinsql_shard_workers", "Scheduler workers owned by the shard.", func() float64 {
			return float64(status().Workers)
		}, lbl)
		m.metrics.CounterFunc("pinsql_shard_windows_total", "Monitoring windows committed by the shard.", func() float64 {
			return float64(status().Committed)
		}, lbl)
		m.metrics.CounterFunc("pinsql_shard_shed_windows_total", "Windows whose diagnosis the shard shed under backpressure.", func() float64 {
			return float64(status().Shed)
		}, lbl)
		m.metrics.GaugeFunc("pinsql_shard_queue_depth", "Staged windows awaiting diagnosis across the shard's instances.", func() float64 {
			depth := 0
			for _, is := range status().Instances {
				depth += is.QueueDepth
			}
			return float64(depth)
		}, lbl)
		m.metrics.CounterFunc("pinsql_shard_commit_batches_total", "Window-journal group commits (one fsync each).", func() float64 {
			b, _ := rt.JournalStats()
			return float64(b)
		}, lbl)
		m.metrics.CounterFunc("pinsql_shard_commit_batch_windows_total", "Windows covered by journal group commits (divide by batches for the mean batch size).", func() float64 {
			_, w := rt.JournalStats()
			return float64(w)
		}, lbl)
	}
}

// MetricsExposition renders the full Prometheus text document: the
// coordinator's own registry (pinsql_shard_* aggregates plus every
// in-process shard's series) merged with each remote shard's scrape.
// Worker series already carry the shard label, so the merged families
// line up exactly with in-process mode; when every shard is in-process
// the output is the registry's exposition, byte for byte. A shard whose
// worker cannot be scraped contributes nothing this scrape (its
// pinsql_shard_up gauge reads 0).
func (m *Manager) MetricsExposition() string {
	var b strings.Builder
	_ = m.metrics.WritePrometheus(&b)
	texts := make([]string, 0, 1+len(m.runtimes))
	texts = append(texts, b.String())
	remote := false
	for _, rt := range m.runtimes {
		t, err := rt.MetricsText()
		if err != nil || t == "" {
			continue
		}
		remote = true
		texts = append(texts, t)
	}
	if !remote {
		return texts[0]
	}
	return obs.MergeText(texts...)
}

// Shards returns the number of shards.
func (m *Manager) Shards() int { return len(m.runtimes) }

// Workers returns the resolved total worker budget (the sum of the
// per-shard pools can exceed it when shards outnumber workers: every shard
// keeps at least one).
func (m *Manager) Workers() int {
	total := 0
	for sh := range m.runtimes {
		total += m.shardWorkers(sh, len(m.runtimes))
	}
	return total
}

// Start launches every shard's scheduler.
func (m *Manager) Start() {
	for _, rt := range m.runtimes {
		rt.Start()
	}
}

// Wait blocks until every shard settles and returns the first shard
// error. Shards wait concurrently so one slow (or mid-restart remote)
// shard does not serialize the others.
func (m *Manager) Wait() error {
	errs := make([]error, len(m.runtimes))
	var wg sync.WaitGroup
	for sh, rt := range m.runtimes {
		wg.Add(1)
		go func(sh int, rt Runtime) {
			defer wg.Done()
			errs[sh] = rt.Wait()
		}(sh, rt)
	}
	wg.Wait()
	return firstShardErr(errs)
}

// Stop drains every shard in parallel — no new windows, queued windows
// still diagnosed and committed, durable topics sealed. Sealing shards
// concurrently is safe because they share no storage; the drained-window
// accounting still sums to the unsharded total (pinned by test).
func (m *Manager) Stop() error {
	errs := make([]error, len(m.runtimes))
	var wg sync.WaitGroup
	for sh, rt := range m.runtimes {
		wg.Add(1)
		go func(sh int, rt Runtime) {
			defer wg.Done()
			errs[sh] = rt.Stop()
		}(sh, rt)
	}
	wg.Wait()
	return firstShardErr(errs)
}

// Close closes every shard in parallel (graceful unless a shard crashed).
func (m *Manager) Close() error {
	errs := make([]error, len(m.runtimes))
	var wg sync.WaitGroup
	for sh, rt := range m.runtimes {
		wg.Add(1)
		go func(sh int, rt Runtime) {
			defer wg.Done()
			errs[sh] = rt.Close()
		}(sh, rt)
	}
	wg.Wait()
	return firstShardErr(errs)
}

func firstShardErr(errs []error) error {
	for sh, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", sh, err)
		}
	}
	return nil
}

// Report merges the shards' committed windows into the fleet-wide report,
// instances in global ID order — byte-identical to the same specs run
// unsharded, in-process or as worker processes (the determinism
// contract's observable artifact). Fragments are fetched concurrently,
// one round trip per shard; the merge order is fixed by m.ids, so fetch
// concurrency cannot reorder a byte.
func (m *Manager) Report() (string, error) {
	frags := make([]map[string][]*fleet.WindowReport, len(m.runtimes))
	errs := make([]error, len(m.runtimes))
	var wg sync.WaitGroup
	for sh, rt := range m.runtimes {
		wg.Add(1)
		go func(sh int, rt Runtime) {
			defer wg.Done()
			frags[sh], errs[sh] = rt.Reports()
		}(sh, rt)
	}
	wg.Wait()
	if err := firstShardErr(errs); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, id := range m.ids {
		fleet.FormatInstanceReport(&b, id, frags[m.assign[id]][id])
	}
	return b.String(), nil
}

// Diagnoses routes to the owning shard; ok is false for unknown instances.
func (m *Manager) Diagnoses(id string) ([]*fleet.WindowReport, bool) {
	sh, ok := m.assign[id]
	if !ok {
		return nil, false
	}
	return m.runtimes[sh].Diagnoses(id)
}

// InstanceRow is one instance of GET /fleet, annotated with its shard.
type InstanceRow struct {
	fleet.InstanceStatus
	Shard int `json:"shard"`
}

// Status is the aggregated GET /fleet document.
type Status struct {
	Shards    int           `json:"shards"`
	Workers   int           `json:"workers"`
	Draining  bool          `json:"draining"`
	Done      bool          `json:"done"`
	Committed int           `json:"committed"`
	Anomalies int           `json:"anomalies"`
	Shed      int64         `json:"shed"`
	Instances []InstanceRow `json:"instances"`
}

// ShardStatus is one row of GET /shards.
type ShardStatus struct {
	Shard              int   `json:"shard"`
	Workers            int   `json:"workers"`
	Instances          int   `json:"instances"`
	Committed          int   `json:"committed"`
	Anomalies          int   `json:"anomalies"`
	Shed               int64 `json:"shed"`
	QueueDepth         int   `json:"queue_depth"`
	CommitBatches      int64 `json:"commit_batches"`
	CommitBatchWindows int64 `json:"commit_batch_windows"`
	Done               bool  `json:"done"`
	// Up is the engine's liveness (always true in-process); Error carries
	// the last status-read failure for a remote shard.
	Up    bool   `json:"up"`
	Error string `json:"error,omitempty"`
}

// Status snapshots every shard and merges, instances in global ID order.
func (m *Manager) Status() Status {
	out := Status{Shards: len(m.runtimes), Done: true}
	rows := make(map[string]InstanceRow, len(m.ids))
	for sh, rt := range m.runtimes {
		st, err := rt.Status()
		if err != nil {
			// An unreachable shard (worker mid-restart) contributes no
			// rows; the fleet is visibly not done rather than wrong.
			out.Done = false
			continue
		}
		out.Workers += st.Workers
		out.Committed += st.Committed
		out.Anomalies += st.Anomalies
		out.Shed += st.Shed
		if st.Draining {
			out.Draining = true
		}
		if !st.Done {
			out.Done = false
		}
		for _, is := range st.Instances {
			rows[is.ID] = InstanceRow{InstanceStatus: is, Shard: sh}
		}
	}
	for _, id := range m.ids {
		if row, ok := rows[id]; ok {
			out.Instances = append(out.Instances, row)
		}
	}
	return out
}

// ShardStatuses snapshots the per-shard rollups behind GET /shards.
func (m *Manager) ShardStatuses() []ShardStatus {
	out := make([]ShardStatus, len(m.runtimes))
	for sh, rt := range m.runtimes {
		st, err := rt.Status()
		if err != nil {
			out[sh] = ShardStatus{Shard: sh, Up: rt.Up(), Error: err.Error()}
			continue
		}
		row := ShardStatus{
			Shard:     sh,
			Workers:   st.Workers,
			Instances: len(st.Instances),
			Committed: st.Committed,
			Anomalies: st.Anomalies,
			Shed:      st.Shed,
			Done:      st.Done,
			Up:        rt.Up(),
		}
		for _, is := range st.Instances {
			row.QueueDepth += is.QueueDepth
		}
		row.CommitBatches, row.CommitBatchWindows = rt.JournalStats()
		out[sh] = row
	}
	return out
}
