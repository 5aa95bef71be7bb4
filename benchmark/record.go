package main

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"pinsql/internal/dbsim"
	"pinsql/internal/fleet"
	"pinsql/internal/ingest"
)

// strRef is a substring of a recording's arena.
type strRef struct{ off, n uint32 }

// tplRef is one distinct (template ID, table, kind) of a recording.
type tplRef struct {
	id, table strRef
	kind      dbsim.QueryKind
}

// recording is one instance's raw stream, recorded once at set-up and
// replayed into the pipeline any number of times. The bulk of it is
// pointer-free — one arena string plus number columns — so the garbage
// collector never scans it: a []dbsim.LogRecord of the same stream is three
// string headers per record, re-marked on every GC cycle and charged to the
// pipeline under test.
type recording struct {
	id        string
	windowSec int
	windows   int
	labels    []string      // injection label per recorded window, "" = none
	simTime   time.Duration // wall time the simulator took to produce it

	arena string // every SQL text, template ID and table name
	tpls  []tplRef

	// One entry per record, in emission order.
	tpl      []uint32
	sql      []strRef
	arrival  []int64
	response []float64
	rows     []int64
	lockWait []float64
	flags    []uint8

	// One entry per dense second: records of second s are
	// [recEnd[s-1], recEnd[s]), metric rows likewise.
	recEnd  []uint32
	metEnd  []uint32
	metrics []dbsim.SecondMetrics
}

const (
	flagThrottled = 1 << iota
	flagTimedOut
)

func (r *recording) str(s strRef) string { return r.arena[s.off : s.off+s.n] }

// maxWindowRecords is the record count of the fullest recorded window.
func (r *recording) maxWindowRecords() int {
	most, prev := uint32(0), uint32(0)
	for w := 1; w <= r.windows; w++ {
		end := r.recEnd[w*r.windowSec-1]
		most, prev = max(most, end-prev), end
	}
	return int(most)
}

// record simulates spec window by window — Setup, then Inject before each
// window, exactly as the fleet drives a simulator-backed instance — and
// keeps the SimSource's dense batches.
//
// worldSeed fixes the instance's workload world: its services and the
// phases of their rate curves. spec.Seed drives everything random inside
// that world: arrival times, SQL literals, service-time jitter, the metric
// sampler. Runs on different seeds therefore see different inputs drawn
// from the same workload, and their numbers are comparable; with the world
// itself reseeded, per-window cost moved by ±15 % between seeds.
func record(spec fleet.InstanceSpec, worldSeed int64) (*recording, error) {
	start := time.Now()
	world, cfg := spec.Setup(worldSeed)
	cfg.Seed = spec.Seed
	sim := dbsim.NewInstance(cfg)
	world.Apply(sim)
	src := ingest.NewSimSource(world, sim, spec.Seed, spec.Windows, spec.WindowSec)

	rec := &recording{id: spec.ID, windowSec: spec.WindowSec, windows: spec.Windows}
	var arena strings.Builder
	intern := func(s string) strRef {
		ref := strRef{off: uint32(arena.Len()), n: uint32(len(s))}
		arena.WriteString(s)
		return ref
	}
	type tplKey struct {
		id, table string
		kind      dbsim.QueryKind
	}
	tplIdx := map[tplKey]uint32{}

	windowMs := int64(spec.WindowSec) * 1000
	for w := 0; w < spec.Windows; w++ {
		fromMs := int64(w) * windowMs
		rec.labels = append(rec.labels, spec.Inject(world, w, fromMs, fromMs+windowMs))
		for s := 0; s < spec.WindowSec; s++ {
			b, err := src.Next()
			if err != nil {
				return nil, fmt.Errorf("record %s window %d second %d: %w", spec.ID, w, s, err)
			}
			for _, r := range b.Records {
				key := tplKey{r.TemplateID, r.Table, r.Kind}
				idx, ok := tplIdx[key]
				if !ok {
					idx = uint32(len(rec.tpls))
					tplIdx[key] = idx
					rec.tpls = append(rec.tpls, tplRef{id: intern(r.TemplateID), table: intern(r.Table), kind: r.Kind})
				}
				var fl uint8
				if r.Throttled {
					fl |= flagThrottled
				}
				if r.TimedOut {
					fl |= flagTimedOut
				}
				rec.tpl = append(rec.tpl, idx)
				rec.sql = append(rec.sql, intern(r.SQL))
				rec.arrival = append(rec.arrival, r.ArrivalMs)
				rec.response = append(rec.response, r.ResponseMs)
				rec.rows = append(rec.rows, r.ExaminedRows)
				rec.lockWait = append(rec.lockWait, r.LockWaitMs)
				rec.flags = append(rec.flags, fl)
			}
			rec.metrics = append(rec.metrics, b.Metrics...)
			rec.recEnd = append(rec.recEnd, uint32(len(rec.tpl)))
			rec.metEnd = append(rec.metEnd, uint32(len(rec.metrics)))
		}
	}
	rec.arena = arena.String()
	rec.simTime = time.Since(start)
	return rec, nil
}

// replaySource serves a recording as an ingest.Source of `windows` windows,
// cycling over the recorded ones with timestamps rebased so the stream
// stays dense and monotonic. The Records and Metrics of a returned batch
// are valid until the next call to Next: the ingest.Player hands every
// record to its sink before it pulls again, so one buffer serves the whole
// replay and the source itself allocates nothing per batch.
type replaySource struct {
	rec    *recording
	sec    int64 // next absolute second
	endSec int64
	recs   []dbsim.LogRecord
	mets   []dbsim.SecondMetrics
}

func (r *recording) source(windows int) *replaySource {
	return &replaySource{rec: r, endSec: int64(windows) * int64(r.windowSec)}
}

// Next implements ingest.Source.
func (s *replaySource) Next() (ingest.Batch, error) {
	if s.sec >= s.endSec {
		return ingest.Batch{}, io.EOF
	}
	rec := s.rec
	span := int64(rec.windows * rec.windowSec)
	rs := s.sec % span // recorded second served now
	shiftSec := s.sec - rs
	shiftMs := shiftSec * 1000

	var lo, mlo uint32
	if rs > 0 {
		lo, mlo = rec.recEnd[rs-1], rec.metEnd[rs-1]
	}
	s.recs = s.recs[:0]
	for i := lo; i < rec.recEnd[rs]; i++ {
		t := rec.tpls[rec.tpl[i]]
		s.recs = append(s.recs, dbsim.LogRecord{
			TemplateID:   rec.str(t.id),
			SQL:          rec.str(rec.sql[i]),
			Table:        rec.str(t.table),
			Kind:         t.kind,
			ArrivalMs:    rec.arrival[i] + shiftMs,
			ResponseMs:   rec.response[i],
			ExaminedRows: rec.rows[i],
			Throttled:    rec.flags[i]&flagThrottled != 0,
			TimedOut:     rec.flags[i]&flagTimedOut != 0,
			LockWaitMs:   rec.lockWait[i],
		})
	}
	s.mets = append(s.mets[:0], rec.metrics[mlo:rec.metEnd[rs]]...)
	for i := range s.mets {
		s.mets[i].Second += shiftSec
	}
	b := ingest.Batch{Second: s.sec, Records: s.recs, Metrics: s.mets, Last: s.sec == s.endSec-1}
	s.sec++
	return b, nil
}

// Bounds implements ingest.Source.
func (s *replaySource) Bounds() (int64, int64) { return 0, s.endSec * 1000 }

// SeekMs implements ingest.Seeker: a reopened durable fleet resumes at its
// first uncommitted window without draining the committed prefix.
func (s *replaySource) SeekMs(ms int64) error {
	s.sec = ms / 1000
	return nil
}

// Close implements ingest.Source.
func (s *replaySource) Close() error { return nil }

// clock is the wall-clock schedule one fleet pass's sources share.
type clock struct {
	start  time.Time
	perSec time.Duration // wall time per trace second; 0 = unpaced (closed loop)
	late   atomic.Int64  // worst lateness of any paced batch, ns
}

// clockedSource stamps, per window, the instant the window's last second
// became available to the pipeline, and optionally paces the stream. The
// pacing is open-loop: second s of an instance is due at
// start + phase + (s+1)·perSec whatever the pipeline did with the seconds
// before it, so a stall shows up as commit lag on the windows behind it
// rather than as a slower generator; how late the generator itself ran is
// kept in clock.late. Unpaced, the stamp is the hand-out time.
//
// A paced source sleeps inside the fleet scheduler worker that pulls it,
// so a paced fleet needs at least one worker per instance on top of the
// ones that do the work.
type clockedSource struct {
	ingest.Source
	clk       *clock
	phase     time.Duration
	windowSec int64
	due       []atomic.Int64 // per window, ns since clk.start
}

// Next implements ingest.Source.
func (c *clockedSource) Next() (ingest.Batch, error) {
	b, err := c.Source.Next()
	if err != nil {
		return b, err
	}
	stamp := time.Since(c.clk.start)
	if c.clk.perSec > 0 {
		due := c.phase + time.Duration(b.Second+1)*c.clk.perSec
		if wait := due - stamp; wait > 0 {
			time.Sleep(wait)
		}
		late := int64(time.Since(c.clk.start) - due)
		for {
			cur := c.clk.late.Load()
			if late <= cur || c.clk.late.CompareAndSwap(cur, late) {
				break
			}
		}
		stamp = due
	}
	// Every batch overwrites its window's stamp, so the last one stands
	// even when a file-backed trace ends mid-window.
	if w := b.Second / c.windowSec; int(w) < len(c.due) {
		c.due[w].Store(int64(stamp))
	}
	return b, nil
}

// Stats implements ingest.Counting by delegation, so the player still sees
// the wrapped adapter's parse errors.
func (c *clockedSource) Stats() ingest.Stats {
	if s, ok := c.Source.(ingest.Counting); ok {
		return s.Stats()
	}
	return ingest.Stats{}
}
