package segment

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pinsql/internal/logstore"
)

// TestBackendEquivalence drives the same ingest run into the in-memory
// store and the durable segment store and asserts byte-identical Scan
// results over many windows — the contract that makes the diagnosis
// pipeline backend-agnostic. The run mixes in-order appends, ties and
// records behind the topic's newest (refused by both), multiple topics,
// TTL expiry, and a close/reopen cycle (restart replay) in the middle.
func TestBackendEquivalence(t *testing.T) {
	dir := t.TempDir()
	mem := logstore.New(60_000)
	seg := logstore.Backend(mustOpen(t, dir, Options{ttlMs: 60_000, segmentRecords: 32, indexEvery: 4}))

	rng := rand.New(rand.NewSource(7))
	topics := []string{"alpha", "beta", "gamma"}
	clock := make(map[string]int64)

	ingest := func(n int) {
		for i := 0; i < n; i++ {
			topic := topics[rng.Intn(len(topics))]
			clock[topic] += int64(rng.Intn(400))
			rec := logstore.Record{
				TemplateIdx:  int32(rng.Intn(50)),
				ArrivalMs:    clock[topic],
				ResponseMs:   rng.Float64() * 1000,
				ExaminedRows: int64(rng.Intn(10_000)),
			}
			if rng.Intn(6) == 0 {
				rec.ArrivalMs -= 1 + int64(rng.Intn(30_000)) // a straggler, behind the newest
			}
			errMem := mem.Append(topic, rec)
			errSeg := seg.Append(topic, rec)
			if errMem != errSeg {
				t.Fatalf("append divergence for %+v: mem=%v seg=%v", rec, errMem, errSeg)
			}
		}
	}

	check := func(stage string) {
		t.Helper()
		if got, want := seg.Topics(), mem.Topics(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: topics: seg %v, mem %v", stage, got, want)
		}
		for _, topic := range topics {
			if got, want := seg.Len(topic), mem.Len(topic); got != want {
				t.Fatalf("%s: %s: Len seg %d, mem %d", stage, topic, got, want)
			}
			gmin, gmax, gok := seg.Bounds(topic)
			wmin, wmax, wok := mem.Bounds(topic)
			if gmin != wmin || gmax != wmax || gok != wok {
				t.Fatalf("%s: %s: Bounds seg (%d,%d,%v), mem (%d,%d,%v)", stage, topic, gmin, gmax, gok, wmin, wmax, wok)
			}
			// Whole-range scan plus a sweep of sub-windows.
			windows := [][2]int64{{0, 1 << 62}}
			for w := 0; w < 20; w++ {
				from := rng.Int63n(clock[topic] + 1000)
				to := from + rng.Int63n(20_000)
				windows = append(windows, [2]int64{from, to})
			}
			for _, win := range windows {
				got := seg.Scan(topic, win[0], win[1])
				want := mem.Scan(topic, win[0], win[1])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s: Scan[%d,%d) diverged:\n seg %v\n mem %v",
						stage, topic, win[0], win[1], got, want)
				}
				// The streaming iterator must visit the same sequence.
				var streamed []logstore.Record
				seg.ScanFunc(topic, win[0], win[1], func(r logstore.Record) bool {
					streamed = append(streamed, r)
					return true
				})
				if len(streamed) != len(want) || (len(want) > 0 && !reflect.DeepEqual(streamed, want)) {
					t.Fatalf("%s: %s: ScanFunc diverged from Scan", stage, topic)
				}
			}
		}
	}

	ingest(600)
	check("initial ingest")

	// TTL expiry must remove the same records from both backends.
	now := clock["alpha"]
	if r1, r2 := mem.Expire(now), seg.Expire(now); r1 != r2 {
		t.Fatalf("Expire removed mem %d, seg %d", r1, r2)
	}
	check("after expire")

	// Restart replay: close the durable store, reopen, and the contract
	// must still hold — including for records that only ever lived in the
	// active wal.
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg = mustOpen(t, dir, Options{ttlMs: 60_000, segmentRecords: 32, indexEvery: 4})
	defer seg.Close()
	check("after reopen")

	ingest(300)
	check("ingest after reopen")

	now = clock["beta"]
	if r1, r2 := mem.Expire(now), seg.Expire(now); r1 != r2 {
		t.Fatalf("post-reopen Expire removed mem %d, seg %d", r1, r2)
	}
	check("expire after reopen")
}

// TestStrictAppendSlackParity runs the same directed sequences against both
// backends — an in-order run, ties, a record behind the newest alone and
// mid-batch, records after Expire and after TruncateFrom — and holds them
// to the same accepted counts and errors at every step, the same scans, and
// the same scans after a reopen, with the newest record in the wal and
// in sealed segments. There is no slack: behind the newest is refused.
func TestStrictAppendSlackParity(t *testing.T) {
	type step struct {
		app      []int64 // one AppendBatch of these arrivals (Append for one)
		expire   int64   // else Expire(expire), TTL 1000
		truncate int64   // else TruncateFrom(truncate)
		want     int     // records the append accepts
	}
	app := func(want int, ms ...int64) step { return step{app: ms, want: want} }
	sequences := []struct {
		name  string
		steps []step
	}{
		{"in order", []step{app(3, 1000, 2000, 3000), app(1, 4000), app(2, 4000, 5000)}},
		{"tie", []step{app(2, 1000, 2000), app(1, 2000), app(4, 2000, 2000, 2500, 2500)}},
		{"behind the newest alone", []step{app(2, 1000, 3000), app(0, 2999), app(0, -5000), app(1, 3000)}},
		{"behind the newest mid-batch", []step{app(2, 1000, 3000), app(2, 3100, 3200, 3150, 3300), app(1, 3200)}},
		{"after Expire", []step{app(5, 1000, 2000, 3000, 4000, 5000), {expire: 3500}, app(0, 4999), app(1, 5000)}},
		{"after TruncateFrom", []step{app(5, 1000, 2000, 3000, 4000, 5000), {truncate: 3000}, app(0, 1999), app(2, 2500, 2600)}},
		{"after TruncateFrom of everything", []step{app(3, 1000, 2000, 3000), {truncate: 0}, app(2, 10, 20)}},
	}
	for _, sq := range sequences {
		for _, segRecords := range []int{2, 1 << 20} {
			t.Run(fmt.Sprintf("%s/segment=%d", sq.name, segRecords), func(t *testing.T) {
				dir := t.TempDir()
				opt := Options{ttlMs: 1000, segmentRecords: segRecords, indexEvery: 2}
				mem, seg := logstore.New(1000), mustOpen(t, dir, opt)
				defer func() { seg.Close() }()
				scans := func(stage string) {
					t.Helper()
					if got, want := seg.Scan("t", -1<<60, 1<<60), mem.Scan("t", -1<<60, 1<<60); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: scan diverged:\n seg %v\n mem %v", stage, got, want)
					}
				}
				for i, st := range sq.steps {
					stage := fmt.Sprintf("step %d", i)
					switch {
					case st.app != nil:
						recs := make([]logstore.Record, len(st.app))
						for k, ms := range st.app {
							recs[k] = logstore.Record{TemplateIdx: int32(10*i + k), ArrivalMs: ms}
						}
						var n1, n2 int
						var e1, e2 error
						if len(recs) == 1 {
							e1, e2 = mem.Append("t", recs[0]), seg.Append("t", recs[0])
							if e1 == nil {
								n1 = 1
							}
							if e2 == nil {
								n2 = 1
							}
						} else {
							n1, e1 = mem.AppendBatch("t", slices.Clone(recs))
							n2, e2 = seg.AppendBatch("t", recs)
						}
						wantErr := error(nil)
						if st.want < len(recs) {
							wantErr = logstore.ErrUnsortedAppend
						}
						if n1 != st.want || e1 != wantErr || n2 != n1 || e2 != e1 {
							t.Fatalf("%s: memory store took %d (%v), segment store %d (%v), want %d", stage, n1, e1, n2, e2, st.want)
						}
					case st.expire != 0:
						if r1, r2 := mem.Expire(st.expire), seg.Expire(st.expire); r1 != r2 || r1 == 0 {
							t.Fatalf("%s: Expire removed %d, segment store %d", stage, r1, r2)
						}
					default:
						if r1, r2 := mem.TruncateFrom("t", st.truncate), seg.TruncateFrom("t", st.truncate); r1 != r2 || r1 == 0 {
							t.Fatalf("%s: TruncateFrom removed %d, segment store %d", stage, r1, r2)
						}
					}
					scans(stage)
				}
				if err := seg.Close(); err != nil {
					t.Fatal(err)
				}
				seg = mustOpen(t, dir, opt)
				scans("reopened")
				// The reopened store refuses what the memory store refuses.
				if _, newest, ok := mem.Bounds("t"); ok {
					behind := logstore.Record{TemplateIdx: -1, ArrivalMs: newest - 1}
					if e1, e2 := mem.Append("t", behind), seg.Append("t", behind); e1 != logstore.ErrUnsortedAppend || e2 != e1 {
						t.Fatalf("reopened: append behind the newest: memory store %v, segment store %v", e1, e2)
					}
				}
			})
		}
	}
}

// TestBackendEquivalenceSeeds runs a compact version of the equivalence
// drive across many seeds so segment-boundary and tie alignments vary.
func TestBackendEquivalenceSeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			mem := logstore.New(0)
			seg := mustOpen(t, dir, Options{segmentRecords: 8 + int(seed), indexEvery: 2})
			defer seg.Close()
			rng := rand.New(rand.NewSource(seed))
			clock := int64(0)
			for i := 0; i < 200; i++ {
				clock += int64(rng.Intn(100))
				rec := logstore.Record{TemplateIdx: int32(i), ArrivalMs: clock}
				if rng.Intn(5) == 0 {
					rec.ArrivalMs -= int64(rng.Intn(5000)) // behind the newest, or a tie
				}
				if e1, e2 := mem.Append("t", rec), seg.Append("t", rec); e1 != e2 {
					t.Fatalf("append %+v: mem=%v seg=%v", rec, e1, e2)
				}
			}
			if got, want := seg.Scan("t", 0, 1<<62), mem.Scan("t", 0, 1<<62); !reflect.DeepEqual(got, want) {
				t.Fatalf("full scan diverged:\n seg %v\n mem %v", got, want)
			}
			for w := 0; w < 50; w++ {
				from := rng.Int63n(clock + 1)
				to := from + rng.Int63n(3000)
				if got, want := seg.Scan("t", from, to), mem.Scan("t", from, to); !reflect.DeepEqual(got, want) {
					t.Fatalf("Scan[%d,%d) diverged", from, to)
				}
			}
		})
	}
}

// storeFiles reads every .wal and .seg file under a store directory, keyed
// by path relative to it.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if ext := filepath.Ext(path); ext == ".wal" || ext == ".seg" {
			data, rerr := os.ReadFile(path)
			rel, _ := filepath.Rel(dir, path)
			files[rel] = string(data)
			return rerr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestBatchAppendMatchesRecordLoop feeds one random sequence of batches —
// in order, with ties, and broken by records behind the newest — to both
// backends twice, whole and record by record through Append, and asserts
// the batch forms are the record loop bit for bit: the accepted count and
// the index of the first ErrUnsortedAppend, scans, and for the segment
// store the seal count, the fsync points (records written since the last
// fsync, after every batch) and the bytes of every .wal and .seg file.
// Segment boundaries, by record count or by byte size, fall inside batches.
func TestBatchAppendMatchesRecordLoop(t *testing.T) {
	limits := map[string]Options{
		"records": {segmentRecords: 13, indexEvery: 4},
		"bytes":   {segmentBytes: 150, indexEvery: 4},
	}
	for name, opt := range limits {
		for _, syncEvery := range []int{0, 1, 7} {
			opt.SyncEvery = syncEvery
			t.Run(fmt.Sprintf("%s/sync=%d", name, syncEvery), func(t *testing.T) {
				batchDir, loopDir := t.TempDir(), t.TempDir()
				segBatch, segLoop := mustOpen(t, batchDir, opt), mustOpen(t, loopDir, opt)
				memBatch, memLoop := logstore.New(0), logstore.New(0)

				// loop is the record-at-a-time reference for one batch.
				loop := func(b logstore.Backend, recs []logstore.Record) (int, error) {
					for i, r := range recs {
						if err := b.Append("t", r); err != nil {
							return i, err
						}
					}
					return len(recs), nil
				}

				rng := rand.New(rand.NewSource(int64(syncEvery) + 11))
				clock, rejections := int64(0), 0
				for step := 0; step < 60; step++ {
					recs := make([]logstore.Record, 1+rng.Intn(40))
					for i := range recs {
						clock += int64(rng.Intn(300)) // ties included
						ms := clock
						if rng.Intn(8) == 0 {
							ms -= int64(rng.Intn(7000)) // behind the newest, as a rule
						}
						recs[i] = logstore.Record{TemplateIdx: int32(rng.Intn(50)), ArrivalMs: ms,
							ResponseMs: rng.Float64() * 1000, ExaminedRows: int64(rng.Intn(10_000))}
					}
					wantN, wantErr := loop(memLoop, recs)
					if wantErr != nil {
						rejections++
					}
					for who, got := range map[string]func() (int, error){
						"mem batch": func() (int, error) { return memBatch.AppendBatch("t", slices.Clone(recs)) },
						"seg loop":  func() (int, error) { return loop(segLoop, recs) },
						"seg batch": func() (int, error) { return segBatch.AppendBatch("t", recs) },
					} {
						if n, err := got(); n != wantN || err != wantErr {
							t.Fatalf("step %d: %s took %d (%v), record loop took %d (%v)", step, who, n, err, wantN, wantErr)
						}
					}
					tb, tl := segBatch.topics["t"], segLoop.topics["t"]
					if tb.act.seq != tl.act.seq || tb.sinceSync != tl.sinceSync || tb.walBytes != tl.walBytes {
						t.Fatalf("step %d: batch writer at seal %d / %d since fsync / %d wal bytes, record writer at %d / %d / %d",
							step, tb.act.seq, tb.sinceSync, tb.walBytes, tl.act.seq, tl.sinceSync, tl.walBytes)
					}
					// SyncEvery fsyncs at every SyncEvery-th record of a wal.
					if syncEvery > 0 && tb.sinceSync != tb.act.count%syncEvery {
						t.Fatalf("step %d: %d records in the wal, %d since the last fsync, SyncEvery %d", step, tb.act.count, tb.sinceSync, syncEvery)
					}
					if step%10 == 9 {
						want := memLoop.Scan("t", -1<<60, 1<<60)
						for who, b := range map[string]logstore.Backend{"mem batch": memBatch, "seg loop": segLoop, "seg batch": segBatch} {
							if got := b.Scan("t", -1<<60, 1<<60); !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d: %s scan diverged from the record loop", step, who)
							}
						}
					}
				}
				if rejections == 0 || segBatch.topics["t"].act.seq < 4 {
					t.Fatalf("fixture too tame: %d rejections, %d seals", rejections, segBatch.topics["t"].act.seq-1)
				}
				if err := segBatch.Err(); err != nil {
					t.Fatal(err)
				}
				// No Close: what the OS holds when the append returns is what
				// a killed process leaves behind.
				if got, want := storeFiles(t, batchDir), storeFiles(t, loopDir); !reflect.DeepEqual(got, want) {
					t.Fatalf("batch writer left %d files, record writer %d, or their bytes differ", len(got), len(want))
				}
				segBatch.Close()
				segLoop.Close()
			})
		}
	}
}

// TestLargeBatchKeepsEncodeBufferBounded appends one batch whose frames run
// to several times frameBufBytes without a seal or fsync boundary: the files
// equal the record-at-a-time writer's and the store's retained encode buffer
// stays near frameBufBytes instead of growing to the whole stretch.
func TestLargeBatchKeepsEncodeBufferBounded(t *testing.T) {
	opt := Options{segmentRecords: 1 << 20, segmentBytes: 1 << 30}
	batchDir, loopDir := t.TempDir(), t.TempDir()
	segBatch, segLoop := mustOpen(t, batchDir, opt), mustOpen(t, loopDir, opt)
	rng := rand.New(rand.NewSource(5))
	recs := make([]logstore.Record, 30_000)
	for i := range recs {
		recs[i] = logstore.Record{TemplateIdx: int32(rng.Intn(50)), ArrivalMs: int64(i*3 + rng.Intn(3)),
			ResponseMs: rng.Float64() * 1000, ExaminedRows: int64(rng.Intn(10_000))}
	}
	if n, err := segBatch.AppendBatch("t", recs); n != len(recs) || err != nil {
		t.Fatalf("AppendBatch took %d of %d (%v)", n, len(recs), err)
	}
	for _, r := range recs {
		segLoop.Append("t", r)
	}
	if wal := segBatch.topics["t"].walBytes; wal < 4*frameBufBytes {
		t.Fatalf("fixture too small: %d wal bytes", wal)
	}
	if got := cap(segBatch.frames); got > 2*frameBufBytes {
		t.Fatalf("store retains a %d-byte encode buffer, want about %d", got, frameBufBytes)
	}
	if got, want := storeFiles(t, batchDir), storeFiles(t, loopDir); !reflect.DeepEqual(got, want) {
		t.Fatal("batch writer's files differ from the record writer's")
	}
	segBatch.Close()
	segLoop.Close()
}

// TestTornBatchWriteRecovery truncates the wal at every byte offset inside
// one batched write: reopening recovers exactly the clean frame prefix, as
// it does for a record-at-a-time writer.
func TestTornBatchWriteRecovery(t *testing.T) {
	masterDir := t.TempDir()
	s := mustOpen(t, masterDir, Options{segmentRecords: 1 << 20})
	var recs []logstore.Record
	for i := 0; i < 12; i++ {
		recs = append(recs, logstore.Record{TemplateIdx: int32(i % 5), ArrivalMs: int64(i / 2 * 37),
			ResponseMs: float64(i) * 1.5, ExaminedRows: int64(i * i)})
	}
	s.AppendBatch("t", recs[:4])
	before, err := os.ReadFile(walPathOf(t, masterDir, "t"))
	if err != nil {
		t.Fatal(err)
	}
	s.AppendBatch("t", recs[4:]) // the write to tear
	walData, err := os.ReadFile(walPathOf(t, masterDir, "t"))
	if err != nil {
		t.Fatal(err)
	}
	frames := frameEnds(t, walData)
	if len(frames) != len(recs) {
		t.Fatalf("wal holds %d frames before any Close, want %d", len(frames), len(recs))
	}
	for k := len(before); k <= len(walData); k++ {
		dir := t.TempDir()
		cloneTopicDir(t, masterDir, dir)
		if err := os.WriteFile(walPathOf(t, dir, "t"), walData[:k], 0o644); err != nil {
			t.Fatal(err)
		}
		r := mustOpen(t, dir, Options{segmentRecords: 1 << 20})
		intact := 0
		for _, end := range frames {
			if end <= k {
				intact++
			}
		}
		if got, want := r.Scan("t", 0, 1<<62), expectPrefix(recs, intact); !reflect.DeepEqual(got, want) {
			t.Fatalf("offset %d: recovered %d records, want the %d intact ones", k, len(got), intact)
		}
		r.Close()
	}
	s.Close()
}
