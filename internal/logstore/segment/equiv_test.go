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
// pipeline backend-agnostic. The run mixes strict and loose appends,
// multiple topics, ties, TTL expiry, and a close/reopen cycle (restart
// replay) in the middle.
func TestBackendEquivalence(t *testing.T) {
	dir := t.TempDir()
	mem := logstore.New(60_000)
	seg := logstore.Backend(mustOpen(t, dir, Options{TTLMs: 60_000, SegmentRecords: 32, IndexEvery: 4}))

	rng := rand.New(rand.NewSource(7))
	topics := []string{"alpha", "beta", "gamma"}
	clock := make(map[string]int64)
	used := map[string]map[int64]bool{}
	for _, topic := range topics {
		used[topic] = map[int64]bool{}
	}

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
			switch draw := rng.Intn(6); {
			case draw == 0:
				// Loose append with an arbitrarily late completion.
				rec.ArrivalMs -= int64(rng.Intn(30_000))
				mem.AppendLoose(topic, rec)
				seg.AppendLoose(topic, rec)
				used[topic][rec.ArrivalMs] = true
			case draw == 1:
				// Out-of-order strict append, in or just beyond the slack
				// window, so acceptance depends on the slack reference both
				// backends must agree on. Its arrival is kept distinct from
				// every record already in the topic: when the in-memory
				// store has loose appends pending, it insertion-sorts into
				// an unsorted slice, and the position it lands at among
				// equal arrivals is a binary-search artifact no other
				// backend can reproduce.
				rec.ArrivalMs -= int64(1 + rng.Intn(6000))
				for used[topic][rec.ArrivalMs] {
					rec.ArrivalMs--
				}
				errMem := mem.Append(topic, rec)
				errSeg := seg.Append(topic, rec)
				if (errMem == nil) != (errSeg == nil) {
					t.Fatalf("out-of-order append divergence for %+v: mem=%v seg=%v", rec, errMem, errSeg)
				}
				if errMem == nil {
					used[topic][rec.ArrivalMs] = true
				}
			default:
				errMem := mem.Append(topic, rec)
				errSeg := seg.Append(topic, rec)
				if (errMem == nil) != (errSeg == nil) {
					t.Fatalf("append divergence for %+v: mem=%v seg=%v", rec, errMem, errSeg)
				}
				if errMem == nil {
					used[topic][rec.ArrivalMs] = true
				}
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
	seg = mustOpen(t, dir, Options{TTLMs: 60_000, SegmentRecords: 32, IndexEvery: 4})
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

// TestStrictAppendSlackParity pins accept/reject parity of the strict
// Append path on directed sequences. The key regression: an in-slack
// out-of-order append must not shift the slack reference off the topic
// maximum — for {1000, 998, -4001} the third record is 5001 ms behind
// the maximum and both backends must reject it (the in-memory store
// insertion-sorts 998 back into place, so its reference stays 1000).
func TestStrictAppendSlackParity(t *testing.T) {
	sequences := [][]int64{
		{1000, 998, -4001},
		{1000, 998, 999, -4001},
		{1000, 998, -4000}, // exactly at the slack boundary: accepted
		{1000, 9000, 3000, 5000, 4000, 6000},
		{1000, 998, 996, 994, -4001, -3999},
		{5000, 0, 10_000, 5000, 4999},
	}
	for si, seq := range sequences {
		mem := logstore.New(0)
		seg := mustOpen(t, t.TempDir(), Options{})
		for i, ms := range seq {
			r := logstore.Record{TemplateIdx: int32(i), ArrivalMs: ms}
			errMem := mem.Append("t", r)
			errSeg := seg.Append("t", r)
			if (errMem == nil) != (errSeg == nil) {
				t.Errorf("seq %d, append %d (arrival %d): mem=%v seg=%v", si, i, ms, errMem, errSeg)
			}
		}
		if got, want := seg.Scan("t", -1<<60, 1<<60), mem.Scan("t", -1<<60, 1<<60); !reflect.DeepEqual(got, want) {
			t.Errorf("seq %d: scan diverged:\n seg %v\n mem %v", si, got, want)
		}
		seg.Close()
	}
}

// TestSlackReferenceAcrossStates walks the reference through every state
// transition the in-memory store exposes — loose appends move it to the
// last appended record, a scan resorts it to the topic maximum, and full
// expiry resets the topic — asserting parity at each step.
func TestSlackReferenceAcrossStates(t *testing.T) {
	mem := logstore.New(0)
	seg := mustOpen(t, t.TempDir(), Options{})
	defer seg.Close()
	parity := func(stage string, ms int64) {
		t.Helper()
		r := logstore.Record{ArrivalMs: ms}
		errMem := mem.Append("t", r)
		errSeg := seg.Append("t", r)
		if (errMem == nil) != (errSeg == nil) {
			t.Fatalf("%s (arrival %d): mem=%v seg=%v", stage, ms, errMem, errSeg)
		}
	}

	parity("first", 10_000)
	loose := logstore.Record{ArrivalMs: 400}
	mem.AppendLoose("t", loose)
	seg.AppendLoose("t", loose)
	// Reference is now the loose record: 4800 ms behind it is in slack
	// even though it is 14400 ms behind the topic maximum.
	parity("behind pending loose", -4400)
	// A scan resorts both stores; the reference snaps back to the max.
	if got, want := seg.Scan("t", -1<<60, 1<<60), mem.Scan("t", -1<<60, 1<<60); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan diverged:\n seg %v\n mem %v", got, want)
	}
	parity("behind max after sort", 4999) // 5001 behind 10000: rejected
	parity("at slack after sort", 5000)   // exactly 5000 behind: accepted

	// Full expiry empties the topic in both backends; arbitrarily old
	// arrivals are acceptable again.
	now := 100_000 + int64(logstore.DefaultTTLMs)
	if r1, r2 := mem.Expire(now), seg.Expire(now); r1 != r2 {
		t.Fatalf("Expire removed mem %d, seg %d", r1, r2)
	}
	parity("after full expiry", 123)
}

// TestSlackReferenceWithOrderedLooseBatches: the in-memory store decides
// while it copies a loose batch whether the topic needs its order restored,
// and one that arrives in order leaves it clean — no sort at the next
// Scan, Bounds or Expire. The segment store's refLast/refValid mirror of
// that store's last element must not notice: mixed sequences of loose
// batches (in order, at or after the topic's newest record, or not),
// strict appends at every lag around the slack, and the calls that realign
// the reference, keep accepting and rejecting the same records and
// scanning the same bytes.
func TestSlackReferenceWithOrderedLooseBatches(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := logstore.New(0)
		seg := mustOpen(t, t.TempDir(), Options{SegmentRecords: 16 + int(seed), IndexEvery: 3})
		clock, next := int64(100_000), int32(0)
		// disordered: a loose batch broke arrival order and nothing has
		// sorted since. A strict append that has to be inserted into such a
		// topic is outside the equivalence (the in-memory store
		// binary-searches an arena that is not sorted), so strict batches
		// wait for a scan.
		disordered := false
		scan := func(step int, from, to int64) {
			if got, want := seg.Scan("t", from, to), mem.Scan("t", from, to); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: Scan diverged:\n seg %v\n mem %v", seed, step, got, want)
			}
			disordered = false
		}
		rec := func(ms int64) logstore.Record {
			next++
			return logstore.Record{TemplateIdx: next, ArrivalMs: ms}
		}
		for step := 0; step < 400; step++ {
			switch k := rng.Intn(10); {
			case k < 3: // a loose batch in arrival order, not behind the topic
				batch := make([]logstore.Record, 1+rng.Intn(6))
				for i := range batch {
					clock += int64(rng.Intn(40))
					batch[i] = rec(clock)
				}
				mem.AppendLooseBatch("t", batch)
				seg.AppendLooseBatch("t", batch)
			case k < 4: // in order within itself, but starting behind the topic
				at := clock - int64(rng.Intn(8000))
				batch := []logstore.Record{rec(at), rec(at + 1), rec(at + 1)}
				mem.AppendLooseBatch("t", batch)
				seg.AppendLooseBatch("t", batch)
				disordered = true
			case k < 5: // out of order within itself
				batch := []logstore.Record{rec(clock + 50), rec(clock - int64(rng.Intn(7000))), rec(clock + 20)}
				mem.AppendLooseBatch("t", batch)
				seg.AppendLooseBatch("t", batch)
				disordered = true
			case k < 8: // strict appends around the slack boundary
				if disordered {
					scan(step, clock-10_000, clock)
				}
				batch := make([]logstore.Record, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = rec(clock - []int64{0, 1, 4999, 5000, 5001, 9000}[rng.Intn(6)] + int64(rng.Intn(3)))
				}
				nMem, errMem := mem.AppendBatch("t", slices.Clone(batch)) // the store keeps what it is handed
				nSeg, errSeg := seg.AppendBatch("t", batch)
				if nMem != nSeg || (errMem == nil) != (errSeg == nil) {
					t.Fatalf("seed %d step %d: strict batch %v: mem took %d (%v), seg took %d (%v)", seed, step, batch, nMem, errMem, nSeg, errSeg)
				}
			case k < 9: // the calls at which the in-memory store sorts
				switch rng.Intn(3) {
				case 0:
					lo1, hi1, ok1 := mem.Bounds("t")
					lo2, hi2, ok2 := seg.Bounds("t")
					if lo1 != lo2 || hi1 != hi2 || ok1 != ok2 {
						t.Fatalf("seed %d step %d: Bounds mem %d,%d,%v seg %d,%d,%v", seed, step, lo1, hi1, ok1, lo2, hi2, ok2)
					}
					disordered = false
				case 1:
					now := clock - 20_000 + logstore.DefaultTTLMs
					if r1, r2 := mem.Expire(now), seg.Expire(now); r1 != r2 {
						t.Fatalf("seed %d step %d: Expire removed mem %d, seg %d", seed, step, r1, r2)
					}
					disordered = false
				default:
					from := clock - int64(rng.Intn(30_000))
					scan(step, from, from+10_000)
				}
			default:
				clock += int64(rng.Intn(3000))
			}
		}
		if got, want := seg.Scan("t", -1<<60, 1<<60), mem.Scan("t", -1<<60, 1<<60); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: final scan diverged (%d vs %d records)", seed, len(got), len(want))
		}
		seg.Close()
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
			seg := mustOpen(t, dir, Options{SegmentRecords: 8 + int(seed), IndexEvery: 2})
			defer seg.Close()
			rng := rand.New(rand.NewSource(seed))
			clock := int64(0)
			for i := 0; i < 200; i++ {
				clock += int64(rng.Intn(100))
				rec := logstore.Record{TemplateIdx: int32(i), ArrivalMs: clock - int64(rng.Intn(5000))}
				mem.AppendLoose("t", rec)
				seg.AppendLoose("t", rec)
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

// TestBatchAppendMatchesRecordLoop feeds one random sequence of strict and
// loose batches to both backends twice — whole, and record by record
// through Append/AppendLoose — and asserts the batch forms are the record
// loop bit for bit: the accepted count and the index of the first
// ErrUnsortedAppend, within-slack insertions, scans, and for the segment
// store the seal count, the fsync points (records written since the last
// fsync, after every batch) and the bytes of every .wal and .seg file.
// Segment boundaries, by record count or by byte size, fall inside batches.
func TestBatchAppendMatchesRecordLoop(t *testing.T) {
	limits := map[string]Options{
		"records": {SegmentRecords: 13, IndexEvery: 4},
		"bytes":   {SegmentBytes: 150, IndexEvery: 4},
	}
	for name, opt := range limits {
		for _, syncEvery := range []int{0, 1, 7} {
			opt.SyncEvery = syncEvery
			t.Run(fmt.Sprintf("%s/sync=%d", name, syncEvery), func(t *testing.T) {
				batchDir, loopDir := t.TempDir(), t.TempDir()
				segBatch, segLoop := mustOpen(t, batchDir, opt), mustOpen(t, loopDir, opt)
				memBatch, memLoop := logstore.New(0), logstore.New(0)

				// loop is the record-at-a-time reference for one batch.
				loop := func(b logstore.Backend, recs []logstore.Record, loose bool) (int, error) {
					for i, r := range recs {
						if loose {
							b.AppendLoose("t", r)
						} else if err := b.Append("t", r); err != nil {
							return i, err
						}
					}
					return len(recs), nil
				}
				batch := func(b logstore.Backend, recs []logstore.Record, loose bool) (int, error) {
					if loose {
						b.AppendLooseBatch("t", recs)
						return len(recs), nil
					}
					return b.AppendBatch("t", recs)
				}

				rng := rand.New(rand.NewSource(int64(syncEvery) + 11))
				clock, used, rejections := int64(0), map[int64]bool{}, 0
				for step := 0; step < 60; step++ {
					loose := rng.Intn(3) == 0
					recs := make([]logstore.Record, 1+rng.Intn(40))
					for i := range recs {
						clock += int64(1 + rng.Intn(300))
						ms := clock
						switch rng.Intn(8) {
						case 0: // behind, inside or just beyond the slack window
							ms -= int64(rng.Intn(7000))
						case 1:
							if loose {
								ms -= int64(rng.Intn(30_000))
							}
						}
						// Distinct arrivals: where a within-slack insertion
						// lands among equal arrivals of an unsorted topic is
						// an artifact of the in-memory store alone.
						for used[ms] {
							ms--
						}
						used[ms] = true
						recs[i] = logstore.Record{TemplateIdx: int32(rng.Intn(50)), ArrivalMs: ms,
							ResponseMs: rng.Float64() * 1000, ExaminedRows: int64(rng.Intn(10_000))}
					}
					wantN, wantErr := loop(memLoop, recs, loose)
					if wantErr != nil {
						rejections++
					}
					for who, got := range map[string]func() (int, error){
						"mem batch": func() (int, error) { return batch(memBatch, slices.Clone(recs), loose) },
						"seg loop":  func() (int, error) { return loop(segLoop, recs, loose) },
						"seg batch": func() (int, error) { return batch(segBatch, recs, loose) },
					} {
						if n, err := got(); n != wantN || err != wantErr {
							t.Fatalf("step %d: %s took %d (%v), record loop took %d (%v)", step, who, n, err, wantN, wantErr)
						}
					}
					tb, tl := segBatch.topics["t"], segLoop.topics["t"]
					if tb.seq != tl.seq || tb.sinceSync != tl.sinceSync || tb.walBytes != tl.walBytes {
						t.Fatalf("step %d: batch writer at seal %d / %d since fsync / %d wal bytes, record writer at %d / %d / %d",
							step, tb.seq, tb.sinceSync, tb.walBytes, tl.seq, tl.sinceSync, tl.walBytes)
					}
					// SyncEvery fsyncs at every SyncEvery-th record of a wal.
					if syncEvery > 0 && tb.sinceSync != len(tb.mem)%syncEvery {
						t.Fatalf("step %d: %d records in the wal, %d since the last fsync, SyncEvery %d", step, len(tb.mem), tb.sinceSync, syncEvery)
					}
					if step%10 == 9 { // a scan sorts, which moves the slack reference
						want := memLoop.Scan("t", -1<<60, 1<<60)
						for who, b := range map[string]logstore.Backend{"mem batch": memBatch, "seg loop": segLoop, "seg batch": segBatch} {
							if got := b.Scan("t", -1<<60, 1<<60); !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d: %s scan diverged from the record loop", step, who)
							}
						}
					}
				}
				if rejections == 0 || segBatch.topics["t"].seq < 4 {
					t.Fatalf("fixture too tame: %d rejections, %d seals", rejections, segBatch.topics["t"].seq-1)
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
	opt := Options{SegmentRecords: 1 << 20, SegmentBytes: 1 << 30}
	batchDir, loopDir := t.TempDir(), t.TempDir()
	segBatch, segLoop := mustOpen(t, batchDir, opt), mustOpen(t, loopDir, opt)
	rng := rand.New(rand.NewSource(5))
	recs := make([]logstore.Record, 30_000)
	for i := range recs {
		recs[i] = logstore.Record{TemplateIdx: int32(rng.Intn(50)), ArrivalMs: int64(i*3 + rng.Intn(5000)),
			ResponseMs: rng.Float64() * 1000, ExaminedRows: int64(rng.Intn(10_000))}
	}
	segBatch.AppendLooseBatch("t", recs)
	for _, r := range recs {
		segLoop.AppendLoose("t", r)
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
	s := mustOpen(t, masterDir, Options{SegmentRecords: 1 << 20})
	var recs []logstore.Record
	for i := 0; i < 12; i++ {
		recs = append(recs, logstore.Record{TemplateIdx: int32(i % 5), ArrivalMs: int64((i*37)%200 + i),
			ResponseMs: float64(i) * 1.5, ExaminedRows: int64(i * i)})
	}
	s.AppendLooseBatch("t", recs[:4])
	before, err := os.ReadFile(walPathOf(t, masterDir, "t"))
	if err != nil {
		t.Fatal(err)
	}
	s.AppendLooseBatch("t", recs[4:]) // the write to tear
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
		r := mustOpen(t, dir, Options{SegmentRecords: 1 << 20})
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
