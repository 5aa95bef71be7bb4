package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pinsql/internal/fleet"
)

// testSpecs mirrors the fleet package's fixture shape at 8 instances —
// enough that K=8 puts one instance on every shard (see TestAssignPinned)
// and K=2 splits them 4/4. The auto-repair instance keeps executed actions
// in the journal, the hardest case for cross-shard determinism.
func testSpecs(n int) []fleet.InstanceSpec {
	specs := fleet.DefaultFleet(n, 7, 3, 300)
	specs[3].AutoRepair = true
	return specs
}

func runManager(t *testing.T, specs []fleet.InstanceSpec, opt Options) (string, *Manager) {
	t.Helper()
	m, err := New(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	rep, err := m.Report()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, m
}

// TestAssignPinned is the partition-function regression test: Assign
// decides which shard directory owns an instance's durable state, so
// changing it strands every existing layout. These values are pinned
// forever — if this test fails, revert the hash, don't update the table.
func TestAssignPinned(t *testing.T) {
	pinned := []struct {
		id     string
		shards int
		want   int
	}{
		{"inst-00", 2, 0}, {"inst-01", 2, 1}, {"inst-02", 2, 0}, {"inst-03", 2, 1},
		{"inst-04", 2, 0}, {"inst-05", 2, 1}, {"inst-06", 2, 0}, {"inst-07", 2, 1},
		{"inst-00", 8, 4}, {"inst-01", 8, 7}, {"inst-02", 8, 2}, {"inst-03", 8, 5},
		{"inst-04", 8, 0}, {"inst-05", 8, 3}, {"inst-06", 8, 6}, {"inst-07", 8, 1},
		{"inst-00", 1, 0}, {"", 2, 1}, {"prod-db-eu-west-1", 8, 4},
	}
	for _, p := range pinned {
		if got := Assign(p.id, p.shards); got != p.want {
			t.Errorf("Assign(%q, %d) = %d, want %d (pinned: durable layouts depend on it)", p.id, p.shards, got, p.want)
		}
	}
	// One instance per shard at K=8 for the test fixture's IDs.
	seen := make(map[int]bool)
	for i := 0; i < 8; i++ {
		seen[Assign(fmt.Sprintf("inst-%02d", i), 8)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("inst-00..07 cover %d of 8 shards; the fixture assumption broke", len(seen))
	}
}

// TestShardDeterminism is the tentpole contract: the aggregated report is
// byte-identical to the unsharded fleet's for every shard count and worker
// split.
func TestShardDeterminism(t *testing.T) {
	specs := testSpecs(8)
	// Ground truth: the same specs through a plain unsharded fleet.
	f, err := fleet.New(specs, fleet.Options{Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reps := f.Reports()
	for _, id := range f.IDs() {
		fleet.FormatInstanceReport(&b, id, reps[id])
	}
	want := b.String()
	f.Close()
	if !strings.Contains(want, "rsql") || !strings.Contains(want, "action") {
		t.Fatalf("fixture lost its teeth:\n%s", want)
	}

	for _, tc := range []struct{ shards, workers int }{
		{1, 1}, {2, 3}, {8, 2},
	} {
		rep, m := runManager(t, specs, Options{Shards: tc.shards, Workers: tc.workers, QueueDepth: 16})
		if m.Shards() != tc.shards {
			t.Fatalf("Shards() = %d, want %d", m.Shards(), tc.shards)
		}
		if rep != want {
			t.Fatalf("shards=%d workers=%d: report diverged from unsharded fleet\n--- unsharded ---\n%s\n--- sharded ---\n%s", tc.shards, tc.workers, want, rep)
		}
		st := m.Status()
		if st.Committed != 8*3 || st.Shed != 0 || !st.Done {
			t.Fatalf("shards=%d: status %+v", tc.shards, st)
		}
		if len(st.Instances) != 8 || st.Instances[0].ID != "inst-00" || st.Instances[7].ID != "inst-07" {
			t.Fatalf("instances not merged in global ID order: %+v", st.Instances)
		}
		// Per-shard rollups must sum to the fleet totals.
		sumCommitted, sumInst := 0, 0
		for _, ss := range m.ShardStatuses() {
			sumCommitted += ss.Committed
			sumInst += ss.Instances
		}
		if sumCommitted != st.Committed || sumInst != 8 {
			t.Fatalf("shard rollups don't sum: committed %d/%d instances %d/8", sumCommitted, st.Committed, sumInst)
		}
	}
}

// TestShardWorkerSplit pins the budget split: the per-shard pools sum to
// the requested total, every shard keeps at least one worker, and a shard
// count above the budget over-provisions rather than starving a shard.
func TestShardWorkerSplit(t *testing.T) {
	specs := testSpecs(8)
	for _, tc := range []struct{ shards, workers, wantTotal int }{
		{2, 5, 5}, // uneven split: 3+2
		{4, 4, 4}, // even: 1 each
		{8, 3, 8}, // more shards than workers: every shard still gets 1
	} {
		m, err := New(specs, Options{Shards: tc.shards, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Workers(); got != tc.wantTotal {
			t.Fatalf("shards=%d workers=%d: total %d, want %d", tc.shards, tc.workers, got, tc.wantTotal)
		}
		for sh := 0; sh < tc.shards; sh++ {
			if w := m.shardWorkers(sh, tc.shards); w < 1 {
				t.Fatalf("shard %d got %d workers", sh, w)
			}
		}
		m.Close()
	}
}

// TestShardKillRestart is the durability contract under sharding: a
// whole-process SIGKILL (every shard dies at its next commit once the
// trigger fires) at each commit phase, then a restart over the same data
// directory — per-shard journals recover independently and the finished
// report is byte-identical to an uninterrupted run's.
func TestShardKillRestart(t *testing.T) {
	specs := testSpecs(4)
	want, _ := runManager(t, specs, Options{Shards: 2, Workers: 2, QueueDepth: 16, DataDir: t.TempDir()})

	for _, phase := range []string{"pre-append", "mid-append", "pre-journal", "post-journal"} {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			// Whole-process kill: after the trigger fires in one shard,
			// every shard dies at its next commit-phase check, exactly as
			// SIGKILL takes all shards of one process down together.
			var mu sync.Mutex
			fired := false
			opt := Options{Shards: 2, Workers: 2, QueueDepth: 16, DataDir: dir}
			opt.CrashAt = func(id string, window int, ph string) bool {
				mu.Lock()
				defer mu.Unlock()
				if fired {
					return true
				}
				if id == "inst-03" && window == 1 && ph == phase {
					fired = true
					return true
				}
				return false
			}
			m, err := New(specs, opt)
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			m.Wait() // crashed shards report errors; the kill is the point
			st := m.Status()
			m.Close()
			mu.Lock()
			if !fired {
				mu.Unlock()
				t.Fatal("crash hook never fired")
			}
			mu.Unlock()
			if st.Committed == 4*3 {
				t.Fatal("crash killed nothing: every window already committed")
			}

			got, m2 := runManager(t, specs, Options{Shards: 2, Workers: 2, QueueDepth: 16, DataDir: dir})
			if got != want {
				t.Fatalf("post-restart report diverged\n--- uninterrupted ---\n%s\n--- resumed(%s) ---\n%s", want, phase, got)
			}
			for _, is := range m2.Status().Instances {
				if !is.Done || is.Committed != is.Windows {
					t.Fatalf("instance %s did not finish: committed %d/%d", is.ID, is.Committed, is.Windows)
				}
			}
		})
	}
}

// TestShardCountPersistence: the shard count is part of the durable
// layout. An explicit mismatch on reopen errors; -shards 0 adopts the
// persisted value.
func TestShardCountPersistence(t *testing.T) {
	specs := testSpecs(4)
	dir := t.TempDir()
	if _, m := runManager(t, specs, Options{Shards: 2, Workers: 1, DataDir: dir}); m.Shards() != 2 {
		t.Fatalf("first open: %d shards, want 2", m.Shards())
	}
	if _, err := New(specs, Options{Shards: 3, Workers: 1, DataDir: dir}); err == nil {
		t.Fatal("reopening a 2-shard layout with -shards 3 did not error")
	}
	m, err := New(specs, Options{Shards: 0, Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 2 {
		t.Fatalf("auto shards adopted %d, want the persisted 2", m.Shards())
	}
	m.Close()
}

// TestMissingShardCountRefused: a durable layout whose shard-count file is
// gone — its shard directories still there — does not open under any shard
// count, so the instances of a vanished shard are never restarted from
// window 0 elsewhere; the error names the missing file.
func TestMissingShardCountRefused(t *testing.T) {
	specs := testSpecs(4)
	dir := t.TempDir()
	m, err := New(specs, Options{Shards: 2, Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	path := filepath.Join(dir, shardsFile)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1, 2} {
		m, err := New(specs, Options{Shards: shards, Workers: 1, DataDir: dir})
		if err == nil {
			m.Close()
			t.Fatalf("shards=%d: a layout without %s opened", shards, shardsFile)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("shards=%d: %v does not name %s", shards, err, path)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused open wrote %s (%v)", path, err)
	}
}

// TestShardStopDrains: Stop seals every shard in parallel after the first
// commit; the drained-window counts across shards sum to the manager's
// total, and a restart finishes the remainder byte-identically.
func TestShardStopDrains(t *testing.T) {
	specs := testSpecs(4)
	dir := t.TempDir()
	want, _ := runManager(t, specs, Options{Shards: 2, Workers: 2, DataDir: t.TempDir()})

	committed := make(chan struct{}, 1)
	opt := Options{Shards: 2, Workers: 2, DataDir: dir}
	opt.OnCommit = func(string, *fleet.WindowReport) {
		select {
		case committed <- struct{}{}:
		default:
		}
	}
	m, err := New(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	<-committed
	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	if !st.Draining {
		t.Fatal("Stop did not mark the shards draining")
	}
	// Drain accounting: per-shard committed counts must sum to the
	// aggregate, and the journals must have durably recorded exactly the
	// committed windows.
	sum, journaled := 0, int64(0)
	for _, ss := range m.ShardStatuses() {
		sum += ss.Committed
		journaled += ss.CommitBatchWindows
	}
	if sum != st.Committed {
		t.Fatalf("per-shard drained windows sum to %d, manager says %d", sum, st.Committed)
	}
	if journaled != int64(st.Committed) {
		t.Fatalf("journals recorded %d windows, %d committed", journaled, st.Committed)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	got, m2 := runManager(t, specs, Options{Shards: 2, Workers: 2, DataDir: dir})
	if got != want {
		t.Fatalf("drain+restart report diverged\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if st := m2.Status(); st.Committed != 4*3 {
		t.Fatalf("restart finished %d windows, want 12", st.Committed)
	}
}

// TestShardHTTP exercises the aggregating control plane end to end: the
// merged /fleet document, the /shards rollups, routed diagnoses, and the
// shard-labelled metrics (including non-zero group-commit counters).
func TestShardHTTP(t *testing.T) {
	specs := fleet.DefaultFleet(4, 3, 2, 300)
	m, err := New(specs, Options{Shards: 2, Workers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	get := func(path string, wantCode int) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var st Status
	if err := json.Unmarshal([]byte(get("/fleet", 200)), &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || !st.Done || st.Committed != 8 || len(st.Instances) != 4 {
		t.Fatalf("unexpected /fleet status: %+v", st)
	}
	for _, is := range st.Instances {
		if want := Assign(is.ID, 2); is.Shard != want {
			t.Fatalf("instance %s annotated shard=%d, want %d", is.ID, is.Shard, want)
		}
	}

	var shards []ShardStatus
	if err := json.Unmarshal([]byte(get("/shards", 200)), &shards); err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("/shards returned %d rows, want 2", len(shards))
	}
	for _, ss := range shards {
		if ss.Instances != 2 || ss.Committed != 4 || !ss.Done {
			t.Fatalf("unexpected shard rollup: %+v", ss)
		}
		if ss.CommitBatches < 1 || ss.CommitBatchWindows != 4 {
			t.Fatalf("group-commit accounting off: %+v", ss)
		}
	}

	var reps []*fleet.WindowReport
	if err := json.Unmarshal([]byte(get("/instances/inst-00/diagnoses", 200)), &reps); err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[1].Records == 0 {
		t.Fatalf("unexpected diagnoses: %+v", reps)
	}
	get("/instances/nope/diagnoses", 404)

	metrics := get("/metrics", 200)
	for _, want := range []string{
		// Manager aggregates, one series per shard.
		`pinsql_shard_instances{shard="0"} 2`,
		`pinsql_shard_instances{shard="1"} 2`,
		`pinsql_shard_windows_total{shard="0"} 4`,
		`pinsql_shard_shed_windows_total{shard="1"} 0`,
		`pinsql_shard_queue_depth{shard="0"} 0`,
		`pinsql_shard_workers{shard="0"} 1`,
		`pinsql_shard_commit_batch_windows_total{shard="1"} 4`,
		// Fleet series carry the shard label so K shards share the
		// registry without colliding (labels render sorted by key).
		`pinsql_fleet_windows_total{instance="inst-00",shard="0"} 2`,
		`pinsql_fleet_windows_total{instance="inst-01",shard="1"} 2`,
		`pinsql_ingest_parse_errors_total{instance="inst-00",shard="0"} 0`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
	// Group commits must actually have happened (durable mode).
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, `pinsql_shard_commit_batches_total{shard="0"}`) && strings.HasSuffix(line, " 0") {
			t.Fatalf("no group commits recorded: %s", line)
		}
	}
	if !strings.Contains(get("/debug/pprof/cmdline", 200), "shard") {
		t.Fatal("pprof cmdline endpoint not wired")
	}
}

// TestShardEmptyShards: a shard with no instances is legal (the pinned
// hash may leave gaps) and settles immediately without blocking Wait or
// Stop.
func TestShardEmptyShards(t *testing.T) {
	specs := []fleet.InstanceSpec{fleet.DefaultSpec("inst-00", 5, 2, 300)}
	rep, m := runManager(t, specs, Options{Shards: 4, Workers: 2})
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", m.Shards())
	}
	if !strings.HasPrefix(rep, "instance inst-00: 2 windows") {
		t.Fatalf("unexpected report:\n%s", rep)
	}
	st := m.Status()
	if !st.Done || st.Committed != 2 {
		t.Fatalf("status %+v", st)
	}
}
