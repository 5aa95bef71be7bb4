package fleet

import (
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pinsql/internal/logstore"
	"pinsql/internal/logstore/segment"
	"pinsql/internal/sqltemplate"
)

// checkStoredTopics reopens every instance's segment store under the
// fleet's DataDir, reads its topic back through ScanFunc and holds it to
// what the fleet committed: Σ WindowReport.Records records, arrivals that
// never decrease, and each window's count equal to its report's Records.
func checkStoredTopics(t *testing.T, f *Fleet, dir string) {
	t.Helper()
	for id, reps := range f.Reports() {
		store, err := segment.Open(filepath.Join(dir, url.PathEscape(id)), segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, r := range reps {
			total += r.Records
		}
		var n int64
		prev := int64(-1 << 62)
		store.ScanFunc(id, -1<<62, 1<<62, func(rec logstore.Record) bool {
			if rec.ArrivalMs < prev {
				t.Errorf("%s: arrival %d after %d", id, rec.ArrivalMs, prev)
				return false
			}
			prev = rec.ArrivalMs
			n++
			return true
		})
		if n != total || total == 0 {
			t.Errorf("%s: topic holds %d records, the reports %d", id, n, total)
		}
		for _, r := range reps {
			var in int64
			store.ScanFunc(id, r.FromMs, r.ToMs, func(logstore.Record) bool { in++; return true })
			if in != r.Records {
				t.Errorf("%s window %d: topic holds %d records, the report %d", id, r.Window, in, r.Records)
			}
		}
		store.Close()
	}
}

// storedRow is one stored record with its template resolved to an ID.
type storedRow struct {
	arrivalMs  int64
	template   sqltemplate.ID
	responseMs float64
	rows       int64
}

// storedRows reopens every instance's segment store under dir and reads
// its topic back, each record's TemplateIdx resolved through the fleet's
// registry — for a restarted fleet, the one it restored from its journal.
func storedRows(t *testing.T, f *Fleet, dir string) map[string][]storedRow {
	t.Helper()
	out := make(map[string][]storedRow)
	for _, id := range f.IDs() {
		store, err := segment.Open(filepath.Join(dir, url.PathEscape(id)), segment.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := f.insts[id].registry
		store.ScanFunc(id, -1<<62, 1<<62, func(rec logstore.Record) bool {
			if int(rec.TemplateIdx) >= reg.Len() {
				t.Errorf("%s: record at %d names template %d of a registry of %d", id, rec.ArrivalMs, rec.TemplateIdx, reg.Len())
				return false
			}
			out[id] = append(out[id], storedRow{rec.ArrivalMs, reg.At(rec.TemplateIdx).ID, rec.ResponseMs, rec.ExaminedRows})
			return true
		})
		store.Close()
	}
	return out
}

// TestFleetStoresWhatItCommits is the first reader of the fleet's topics:
// a fleet with a lock-storm instance — statements that complete windows
// after they arrived — commits each window's records after the previous
// window's, in arrival order, and nothing else; in a run, and after a
// mid-append crash and a restart.
func TestFleetStoresWhatItCommits(t *testing.T) {
	specs := testSpecs()
	t.Run("data dir", func(t *testing.T) {
		dir := t.TempDir()
		_, f := runReport(t, specs, Options{Workers: 2, QueueDepth: 16, DataDir: dir})
		storm := false
		for _, reps := range f.Reports() {
			for _, r := range reps {
				storm = storm || r.Injected == "lock_storm"
			}
		}
		if !storm {
			t.Fatal("fixture lost its teeth: no instance has a lock storm")
		}
		checkStoredTopics(t, f, dir)
	})

	t.Run("mid-append crash", func(t *testing.T) {
		dir := t.TempDir()
		var mu sync.Mutex
		fired := false
		opt := Options{Workers: 2, QueueDepth: 16, DataDir: dir}
		opt.CrashAt = func(id string, window int, ph string) bool {
			mu.Lock()
			defer mu.Unlock()
			if id == "inst-01" && window == 1 && ph == "mid-append" {
				fired = true
				return true
			}
			return false
		}
		f, err := New(specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		f.Wait()
		f.Close()
		if !fired {
			t.Fatal("crash hook never fired")
		}
		_, f = runReport(t, specs, Options{Workers: 2, QueueDepth: 16, DataDir: dir})
		checkStoredTopics(t, f, dir)
	})
}

// TestFleetFailsLoudlyOnDiskError: an instance whose store cannot create its
// next wal — a directory sits at that name from the first commit on — fails
// with the error naming the file, in Wait and in Status, instead of
// journaling windows whose records reached no file. Reopened once the name
// is free, the fleet finishes the run with every journaled window's records
// in the topic and the report of a run that never failed.
func TestFleetFailsLoudlyOnDiskError(t *testing.T) {
	specs := []InstanceSpec{DefaultSpec("inst-00", 7, 3, 300)}
	want, _ := runReport(t, specs, Options{Workers: 1, DataDir: t.TempDir()})

	dir := t.TempDir()
	id := specs[0].ID
	topic := filepath.Join(dir, url.PathEscape(id), "t", url.PathEscape(id))
	var mu sync.Mutex
	blocked := ""
	opt := Options{Workers: 1, DataDir: dir} // one worker: no commit runs while OnCommit does
	opt.OnCommit = func(string, *WindowReport) {
		mu.Lock()
		defer mu.Unlock()
		if blocked != "" {
			return
		}
		wals, err := filepath.Glob(filepath.Join(topic, "*.wal"))
		if err != nil || len(wals) != 1 {
			t.Errorf("wal files %v (%v), want one", wals, err)
			return
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(wals[0]), ".wal"), 10, 64)
		if err != nil {
			t.Error(err)
			return
		}
		blocked = filepath.Join(topic, fmt.Sprintf("%08d.wal", seq+1))
		if err := os.Mkdir(blocked, 0o755); err != nil {
			t.Error(err)
		}
	}
	f, err := New(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	werr := f.Wait()
	mu.Lock()
	defer mu.Unlock()
	if blocked == "" {
		t.Fatal("no window committed")
	}
	if werr == nil || !strings.Contains(werr.Error(), blocked) {
		t.Fatalf("Wait: %v, want an error naming %s", werr, blocked)
	}
	st := f.Status().Instances[0]
	if !strings.Contains(st.Error, blocked) || st.Committed == 0 || st.Committed >= specs[0].Windows {
		t.Fatalf("status: %d of %d windows committed, error %q, want one naming %s", st.Committed, specs[0].Windows, st.Error, blocked)
	}
	f.Close()

	if err := os.Remove(blocked); err != nil {
		t.Fatal(err)
	}
	got, f := runReport(t, specs, Options{Workers: 1, DataDir: dir})
	checkStoredTopics(t, f, dir)
	if got != want {
		t.Fatalf("report after the failure and a restart differs from an unfailed run's:\n%s\nwant\n%s", got, want)
	}
}

// TestFleetRefusesRegistryLayout: a data directory whose instance store
// still holds the template-registry file of the earlier layout does not
// open — New names the file — and the store and the journal are left as
// they were.
func TestFleetRefusesRegistryLayout(t *testing.T) {
	specs := []InstanceSpec{DefaultSpec("inst-00", 7, 1, 60)}
	for _, name := range []string{"registry.snap", "registry.delta"} {
		dir := t.TempDir()
		runReport(t, specs, Options{Workers: 1, DataDir: dir})
		legacy := filepath.Join(dir, "inst-00", name)
		if err := os.WriteFile(legacy, []byte("PSEGREG1"), 0o644); err != nil {
			t.Fatal(err)
		}
		before := treeOf(t, dir)
		if f, err := New(specs, Options{DataDir: dir}); err == nil {
			f.Close()
			t.Fatalf("%s: a store of the earlier layout opened", name)
		} else if !strings.Contains(err.Error(), legacy) {
			t.Fatalf("%s: New: %v, want an error naming %s", name, err, legacy)
		}
		if after := treeOf(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: the refused data directory changed", name)
		}
	}
}

// treeOf maps every file under dir to its contents and every directory to
// "/".
func treeOf(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			tree[path] = "/"
			return err
		}
		data, err := os.ReadFile(path)
		tree[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}
