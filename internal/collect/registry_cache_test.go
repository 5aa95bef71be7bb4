package collect

// Tests for the registry's fingerprint index: resolving a raw-SQL record by
// sqltemplate.Fingerprint must be indistinguishable from normalizing it,
// hashing the text and looking the ID up (registry_ref_test.go) — same
// TemplateMeta per call, same entries, interned in the same order — while doing
// none of that work on a hit, holding no raw text, and staying race-clean.

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"pinsql/internal/dbsim"
	"pinsql/internal/ingest"
	"pinsql/internal/sqltemplate"
)

// cacheWorkload yields raw-SQL log records with repeated statements,
// literal variants of one shape (same template, new raw spellings), and
// unique statements (a new template each).
func cacheWorkload(seed int64, n int) []dbsim.LogRecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]dbsim.LogRecord, 0, n)
	for i := 0; i < n; i++ {
		var sql string
		switch rng.Intn(4) {
		case 0: // hot statement repeated verbatim
			sql = "SELECT * FROM orders WHERE id = 1"
		case 1: // same template, varying literal
			sql = fmt.Sprintf("SELECT * FROM orders WHERE id = %d", rng.Intn(50))
		case 2: // another hot template
			sql = fmt.Sprintf("UPDATE users SET age = %d WHERE name = 'u%d'", rng.Intn(99), rng.Intn(10))
		default: // unique statement
			sql = fmt.Sprintf("INSERT INTO t%d (a) VALUES (%d)", i, i)
		}
		recs = append(recs, dbsim.LogRecord{SQL: sql, Table: "orders", Kind: dbsim.KindSelect})
	}
	return recs
}

// logRecords reads every record of a log file through ingest.Open.
func logRecords(t *testing.T, path string) []dbsim.LogRecord {
	t.Helper()
	src, err := ingest.Open(path, "", ingest.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var recs []dbsim.LogRecord
	for {
		b, err := src.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, b.Records...)
	}
}

// fingerprintCollision finds two statements whose templates differ and
// whose fingerprints are equal. The varying part is long and last: FNV-1a
// is a bijection of its state over a common suffix and mixes a short
// counter too weakly to collide.
func fingerprintCollision(t *testing.T) (a, b string) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint32]string)
	for i := 0; i < 300_000; i++ {
		sql := fmt.Sprintf("SELECT c FROM t WHERE k = 7 ORDER BY col_%016x", rng.Uint64())
		fp := sqltemplate.Fingerprint(sql)
		if prev, ok := seen[fp]; ok {
			return prev, sql
		}
		seen[fp] = sql
	}
	t.Fatal("no 32-bit fingerprint collision among 300 000 templates")
	return "", ""
}

// internAgainstReference drives recs through reg and the oracle and fails
// on the first call whose results differ, then compares entries and the
// templates the run interned, Since the registry's size before it.
func internAgainstReference(t *testing.T, name string, reg *Registry, ref *refRegistry, recs []dbsim.LogRecord) {
	t.Helper()
	start := reg.Len()
	for i, rec := range recs {
		if got, want := reg.Intern(rec), ref.Intern(rec); got != want {
			t.Fatalf("%s: record %d (%q / %q): got %+v, reference %+v", name, i, rec.TemplateID, rec.SQL, got, want)
		}
	}
	if !reflect.DeepEqual(reg.Since(0), ref.entries) {
		t.Fatalf("%s: entries diverge from the reference", name)
	}
	if interned := reg.Since(start); !reflect.DeepEqual(interned, ref.interned) {
		t.Fatalf("%s: the run interned %d entries, reference %d, or in another order", name, len(interned), len(ref.interned))
	}
	if hits, misses, size := reg.RawCacheStats(); misses != uint64(size) || size > reg.Len() {
		t.Fatalf("%s: %d hits, %d first sights, index size %d, %d entries", name, hits, misses, size, reg.Len())
	}
}

// TestRegistryCacheDifferential holds Intern to the parent's
// normalize-hash-lookup on generated and real log streams and on the
// orders in which a template can be met two ways.
func TestRegistryCacheDifferential(t *testing.T) {
	fresh := func(name string, recs []dbsim.LogRecord) {
		t.Helper()
		if len(recs) == 0 {
			t.Fatalf("%s: no records", name)
		}
		internAgainstReference(t, name, NewRegistry(), newRefRegistry(nil), recs)
	}
	fresh("cacheWorkload", cacheWorkload(11, 5000))
	fresh("slowlog_fixture", logRecords(t, filepath.Join("..", "ingest", "testdata", "slowlog_fixture.log")))
	fresh("orders-slow", logRecords(t, filepath.Join("..", "..", "examples", "ingest", "orders-slow.log.gz")))

	const sql1, sql2 = "SELECT * FROM orders WHERE id = 1", "select * from orders where id=22"
	digested := dbsim.LogRecord{TemplateID: string(sqltemplate.New(sql1).ID), SQL: sql1, Table: "orders", Kind: dbsim.KindSelect}
	raw := dbsim.LogRecord{SQL: sql2, Table: "other", Kind: dbsim.KindUpdate}
	opaque := dbsim.LogRecord{TemplateID: "PT01", SQL: sql1, Table: "orders"}
	fresh("digested then raw", []dbsim.LogRecord{digested, raw, raw, opaque, digested})
	fresh("raw then digested", []dbsim.LogRecord{raw, digested, opaque, raw})

	a, b := fingerprintCollision(t)
	if sqltemplate.Normalize(a) == sqltemplate.Normalize(b) {
		t.Fatalf("collision search returned one template twice: %q, %q", a, b)
	}
	fresh("one fingerprint, two templates", []dbsim.LogRecord{{SQL: a, Table: "a"}, {SQL: b, Table: "b"}, {SQL: a}, {SQL: b}})
	fresh("one fingerprint, two templates, reversed", []dbsim.LogRecord{{SQL: b, Table: "b"}, {SQL: a, Table: "a"}})

	// A registry restored from another's templates, then raw first sights
	// of a restored template and of a new one.
	reg := NewRegistry()
	for _, rec := range []dbsim.LogRecord{digested, opaque, {SQL: "DELETE FROM carts WHERE uid = 9", Table: "carts", Kind: dbsim.KindDelete}} {
		reg.Intern(rec)
	}
	before := reg.Since(0)
	reg, err := RestoreRegistry(before)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reg.Since(0), before) {
		t.Fatal("restored registry differs from the one persisted")
	}
	for _, bad := range [][]TemplateMeta{before[1:], {before[0], before[0]}, {before[0], {Index: 1, ID: before[0].ID}}} {
		if _, err := RestoreRegistry(bad); err == nil {
			t.Fatalf("RestoreRegistry accepted %+v", bad)
		}
	}
	internAgainstReference(t, "restored", reg, newRefRegistry(before), []dbsim.LogRecord{
		raw, {SQL: "DELETE FROM carts WHERE uid = 10"}, {SQL: "SELECT 1 FROM dual"}, raw, digested,
	})
}

// TestRegistryCacheBounded: the registry keeps no raw text, so ten thousand
// unique-literal spellings of one template leave one entry behind.
func TestRegistryCacheBounded(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 10_000; i++ {
		r.Intern(dbsim.LogRecord{SQL: fmt.Sprintf("SELECT %d FROM t WHERE c = 'x%d'", i, i)})
	}
	if hits, misses, size := r.RawCacheStats(); size != 1 || misses != 1 || hits != 9_999 || r.Len() != 1 {
		t.Fatalf("index size %d, %d first sights, %d hits, %d entries; want 1, 1, 9999, 1", size, misses, hits, r.Len())
	}
}

// TestRegistryInternWorkBudget budgets a warm raw-SQL Intern in work, not
// time: no allocation, and no write lock — the hits run to completion while
// this test holds the registry's read lock, which a single mu.Lock() in
// their path would turn into a deadlock. A first sight must take it.
func TestRegistryInternWorkBudget(t *testing.T) {
	recs := cacheWorkload(5, 400)
	r := NewRegistry()
	for _, rec := range recs {
		r.Intern(rec)
	}
	next := 0
	if allocs := testing.AllocsPerRun(len(recs)-1, func() {
		r.Intern(recs[next])
		next = (next + 1) % len(recs)
	}); allocs != 0 {
		t.Errorf("%.1f allocations per warm raw-SQL Intern, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sqltemplate.Fingerprint(recs[0].SQL) }); allocs != 0 {
		t.Errorf("%.1f allocations per Fingerprint, want 0", allocs)
	}

	_, missesBefore, _ := r.RawCacheStats()
	r.mu.RLock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, rec := range recs {
			r.Intern(rec)
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("warm raw-SQL Interns did not finish beside a held read lock: a hit takes the write lock")
	}
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		r.Intern(dbsim.LogRecord{SQL: "SELECT never_seen FROM nowhere"})
	}()
	select {
	case <-blocked:
		t.Error("a first sight finished beside a held read lock: it took no write lock")
	case <-time.After(50 * time.Millisecond):
	}
	r.mu.RUnlock()
	<-blocked
	if _, misses, _ := r.RawCacheStats(); misses != missesBefore+1 {
		t.Errorf("%d first sights after one new template, want %d", misses, missesBefore+1)
	}
}

// TestRegistryCacheConcurrent hammers one registry from many goroutines
// with overlapping raw statements; under -race this proves the index's
// read-path/insert-path locking, and every goroutine must observe
// identical metadata for identical SQL.
func TestRegistryCacheConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([][]TemplateMeta, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			recs := cacheWorkload(99, 2000) // same stream in every goroutine
			out := make([]TemplateMeta, 0, len(recs))
			for _, rec := range recs {
				out = append(out, r.Intern(rec))
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d record %d: %+v vs %+v", g, i, results[g][i], results[0][i])
			}
		}
	}
	if hits, misses, size := r.RawCacheStats(); misses != uint64(size) || hits+misses != goroutines*2000 || size != r.Len() {
		t.Fatalf("%d hits + %d first sights over %d records, index size %d, %d entries", hits, misses, goroutines*2000, size, r.Len())
	}
}
