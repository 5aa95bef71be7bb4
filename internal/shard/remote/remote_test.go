package remote

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pinsql/internal/fleet"
	"pinsql/internal/shard"
)

// TestMain makes the test binary dual-role: a coordinator-side test
// spawns THIS binary as its workers (SelfCommand), and MaybeWorker turns
// those children into shard workers before any test runs.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// testSpecSet mirrors the in-process shard tests' fleet: n heterogeneous
// instances, one auto-repairing.
func testSpecSet(n, windows int) SpecSet {
	ss := SpecSet{Instances: n, Seed: 7, Windows: windows, WindowSec: 300}
	if n > 3 {
		ss.AutoRepairIDs = []string{"inst-03"}
	}
	return ss
}

// recordingFactory wraps Factory so tests can reach the concrete
// *Runtime values (restart counts, adoption state, the Abandon seam).
func recordingFactory(opt Options, sink *[]*Runtime) shard.RuntimeFactory {
	inner := Factory(opt)
	var mu sync.Mutex
	return func(sh, shards int, specs []fleet.InstanceSpec, fopt fleet.Options) (shard.Runtime, error) {
		rt, err := inner(sh, shards, specs, fopt)
		if err == nil {
			mu.Lock()
			*sink = append(*sink, rt.(*Runtime))
			mu.Unlock()
		}
		return rt, err
	}
}

// runToReport drives a manager through Start/Wait/Report/Close.
func runToReport(t *testing.T, specs []fleet.InstanceSpec, opt shard.Options) string {
	t.Helper()
	m, err := shard.New(specs, opt)
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
	return rep
}

// TestCrossModeDeterminism is the tentpole's headline claim: the fleet
// report is byte-identical between in-process shards and worker
// processes, for shards in {1, 2, 8}.
func TestCrossModeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	ss := testSpecSet(8, 2)
	specs, err := ss.Build()
	if err != nil {
		t.Fatal(err)
	}
	golden := runToReport(t, specs, shard.Options{Shards: 1, Workers: 2})
	if !strings.Contains(golden, "instance inst-00") {
		t.Fatalf("golden report looks empty:\n%s", golden)
	}

	for _, k := range []int{1, 2, 8} {
		specs, err := ss.Build()
		if err != nil {
			t.Fatal(err)
		}
		got := runToReport(t, specs, shard.Options{
			Shards:  k,
			Workers: 2,
			Runtime: Factory(Options{Specs: ss}),
		})
		if got != golden {
			t.Errorf("shards=%d multi-process report diverges from in-process golden\n--- got\n%s--- want\n%s", k, got, golden)
		}
	}
}

// TestRemoteControlPlane exercises the coordinator's merged reads over
// live worker processes: /fleet-shaped Status, routed Diagnoses, the
// merged metrics exposition, and per-shard rollups with liveness.
func TestRemoteControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	ss := testSpecSet(4, 2)
	specs, err := ss.Build()
	if err != nil {
		t.Fatal(err)
	}
	var rts []*Runtime
	m, err := shard.New(specs, shard.Options{
		Shards:  2,
		Workers: 2,
		Runtime: recordingFactory(Options{Specs: ss}, &rts),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}

	st := m.Status()
	if st.Shards != 2 || !st.Done {
		t.Errorf("Status = shards %d done %v, want 2/true", st.Shards, st.Done)
	}
	if len(st.Instances) != 4 {
		t.Fatalf("Status has %d instances, want 4", len(st.Instances))
	}
	for _, is := range st.Instances {
		if is.Committed != 2 {
			t.Errorf("instance %s committed %d windows, want 2", is.ID, is.Committed)
		}
		if want := shard.Assign(is.ID, 2); is.Shard != want {
			t.Errorf("instance %s annotated shard %d, want %d", is.ID, is.Shard, want)
		}
	}

	reps, ok := m.Diagnoses("inst-02")
	if !ok || len(reps) != 2 {
		t.Errorf("Diagnoses(inst-02) = %d reports ok=%v, want 2/true", len(reps), ok)
	}
	if _, ok := m.Diagnoses("nope"); ok {
		t.Error("Diagnoses(nope) ok for unknown instance")
	}

	for _, row := range m.ShardStatuses() {
		if !row.Up || !row.Done {
			t.Errorf("shard %d up=%v done=%v, want true/true", row.Shard, row.Up, row.Done)
		}
	}

	text := m.MetricsExposition()
	for _, want := range []string{
		`pinsql_shard_up{shard="0"} 1`,
		`pinsql_shard_up{shard="1"} 1`,
		`pinsql_fleet_windows_total{instance="inst-00",shard="` + fmt.Sprint(shard.Assign("inst-00", 2)) + `"} 2`,
		"# TYPE pinsql_shard_windows_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("merged /metrics misses %q", want)
		}
	}
	// The merged document must not duplicate a family header.
	if n := strings.Count(text, "# TYPE pinsql_fleet_windows_total counter"); n != 1 {
		t.Errorf("merged /metrics has %d pinsql_fleet_windows_total TYPE lines, want 1", n)
	}
}

// TestWorkerKillRestart SIGKILLs a worker process at every commit phase
// and asserts the coordinator relaunches it, the journal replays — the
// victim's worker keeps its journal in the shard's data directory — and
// the final report matches the never-killed golden byte for byte.
func TestWorkerKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	ss := testSpecSet(4, 3)
	const victim = "inst-00"
	victimShard := shard.Assign(victim, 2)

	goldenSpecs, err := ss.Build()
	if err != nil {
		t.Fatal(err)
	}
	golden := runToReport(t, goldenSpecs, shard.Options{
		Shards: 2, Workers: 2, DataDir: t.TempDir(),
	})

	for _, phase := range []string{"pre-append", "mid-append", "pre-journal", "post-journal"} {
		t.Run(phase, func(t *testing.T) {
			specs, err := ss.Build()
			if err != nil {
				t.Fatal(err)
			}
			var rts []*Runtime
			dir := t.TempDir()
			got := runToReport(t, specs, shard.Options{
				Shards:  2,
				Workers: 2,
				DataDir: dir,
				Runtime: recordingFactory(Options{
					Specs:  ss,
					KillAt: victim + ":1:" + phase,
				}, &rts),
			})
			if got != golden {
				t.Errorf("report after SIGKILL at %s diverges\n--- got\n%s--- want\n%s", phase, got, golden)
			}
			killed := false
			for _, rt := range rts {
				rt.mu.Lock()
				if rt.cfg.Shard == victimShard && rt.restarts > 0 {
					killed = true
				}
				rt.mu.Unlock()
			}
			if !killed {
				t.Errorf("kill hook at %s never fired: no worker restart recorded", phase)
			}
			if _, err := os.Stat(filepath.Join(dir, "shard-"+strconv.Itoa(victimShard), "journal.jsonl")); err != nil {
				t.Errorf("the victim's worker kept no journal in its shard directory: %v", err)
			}
		})
	}
}

// TestCoordinatorRestartAdoptsWorkers simulates a coordinator crash with
// live workers: the replacement coordinator finds the published address
// files, adopts the running processes instead of spawning duplicates
// over the same shard directories, and serves the same bytes.
func TestCoordinatorRestartAdoptsWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	ss := testSpecSet(4, 2)
	dir := t.TempDir()

	specs, err := ss.Build()
	if err != nil {
		t.Fatal(err)
	}
	var rts1 []*Runtime
	m1, err := shard.New(specs, shard.Options{
		Shards: 2, Workers: 2, DataDir: dir,
		Runtime: recordingFactory(Options{Specs: ss}, &rts1),
	})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	if err := m1.Wait(); err != nil {
		t.Fatal(err)
	}
	golden, err := m1.Report()
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator "crashes": supervision detaches, workers keep running,
	// address files stay published.
	pids := make(map[int]bool)
	for _, rt := range rts1 {
		rt.mu.Lock()
		if rt.cmd != nil {
			pids[rt.cmd.Process.Pid] = true
		}
		rt.mu.Unlock()
		rt.Abandon()
	}
	if len(pids) != 2 {
		t.Fatalf("recorded %d worker pids, want 2", len(pids))
	}

	specs, err = ss.Build()
	if err != nil {
		t.Fatal(err)
	}
	var rts2 []*Runtime
	m2, err := shard.New(specs, shard.Options{
		Shards: 2, Workers: 2, DataDir: dir,
		Runtime: recordingFactory(Options{Specs: ss}, &rts2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range rts2 {
		rt.mu.Lock()
		adopted, pid := rt.cmd == nil, rt.adoptPid
		rt.mu.Unlock()
		if !adopted || !pids[pid] {
			t.Errorf("shard %d: adopted=%v pid=%d, want adoption of a live worker %v",
				rt.cfg.Shard, adopted, pid, pids)
		}
	}
	m2.Start()
	if err := m2.Wait(); err != nil {
		t.Fatal(err)
	}
	got, err := m2.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got != golden {
		t.Errorf("adopting coordinator's report diverges\n--- got\n%s--- want\n%s", got, golden)
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must actually have taken the adopted workers down. Each wait
	// ends when the process is gone; the ceiling only bounds a hang, and is
	// wide enough for a machine whose CPUs are all taken.
	deadline := time.Now().Add(60 * time.Second)
	for pid := range pids {
		for time.Now().Before(deadline) && syscall.Kill(pid, 0) == nil {
			time.Sleep(50 * time.Millisecond)
		}
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("worker pid %d still alive after Close", pid)
		}
	}
}

// TestHandshakeRejects pins the readiness handshake: a worker that
// answers /ready with the wrong API version, shard coordinates, or
// instance set is refused.
func TestHandshakeRejects(t *testing.T) {
	serve := func(doc readyDoc) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /api/v1/ready", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, doc)
		})
		return httptest.NewServer(mux)
	}
	r := &Runtime{cfg: Config{Shard: 0, Shards: 2}, ids: []string{"inst-00", "inst-02"}}

	cases := []struct {
		name string
		doc  readyDoc
		want string
	}{
		{"version", readyDoc{Version: 99, Shard: 0, Shards: 2, IDs: []string{"inst-00", "inst-02"}}, "speaks API"},
		{"shard", readyDoc{Version: APIVersion, Shard: 1, Shards: 2, IDs: []string{"inst-00", "inst-02"}}, "identifies as shard"},
		{"ids", readyDoc{Version: APIVersion, Shard: 0, Shards: 2, IDs: []string{"inst-00", "inst-03"}}, "owns"},
	}
	for _, tc := range cases {
		srv := serve(tc.doc)
		err := r.handshake(strings.TrimPrefix(srv.URL, "http://"))
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: handshake err = %v, want containing %q", tc.name, err, tc.want)
		}
	}

	ok := serve(readyDoc{Version: APIVersion, Shard: 0, Shards: 2, IDs: []string{"inst-00", "inst-02"}})
	defer ok.Close()
	if err := r.handshake(strings.TrimPrefix(ok.URL, "http://")); err != nil {
		t.Errorf("matching handshake rejected: %v", err)
	}
}

// TestSpecSetRoundTrip pins the spec recipe: coordinator and worker build
// identical instance sets from the same SpecSet, and the worker's Assign
// filter partitions them without loss.
func TestSpecSetRoundTrip(t *testing.T) {
	ss := testSpecSet(8, 2)
	a, err := ss.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ss.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("Build sizes %d/%d, want 8", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Seed != b[i].Seed || a[i].AutoRepair != b[i].AutoRepair {
			t.Errorf("spec %d differs across builds: %+v vs %+v", i, a[i], b[i])
		}
	}
	if !a[3].AutoRepair || a[2].AutoRepair {
		t.Error("AutoRepairIDs not applied to exactly inst-03")
	}
	owned := 0
	for k := 0; k < 3; k++ {
		for _, sp := range a {
			if shard.Assign(sp.ID, 3) == k {
				owned++
			}
		}
	}
	if owned != len(a) {
		t.Errorf("Assign partition covers %d of %d specs", owned, len(a))
	}
	if _, err := (SpecSet{}).Build(); err == nil {
		t.Error("empty SpecSet built without error")
	}
}
