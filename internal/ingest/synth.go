package ingest

import (
	"io"
	"math"

	"pinsql/internal/dbsim"
)

// SessionSynth derives per-second instance metrics from the query stream
// itself, for traces that carry no sampler output (a MySQL slow log is
// just statements). The active-session series — the detector's headline
// metric (Definition II.4) — is reconstructed the ASH way: a statement
// occupies one session over [arrival, completion), so the session count
// at an instant is the number of overlapping statement spans.
//
// Because the stream is emission-ordered, a span covering second s is
// only known once its statement completes — possibly much later. The
// synthesizer therefore holds a bounded lookahead of Lookahead seconds
// before releasing a batch; statements longer than the lookahead are
// counted only over their last Lookahead seconds (an explicit
// under-count, preferred over unbounded buffering).
//
// The input must already be dense (wrap raw adapters in Replay first).
// Batches that carry sampler metrics pass through untouched — synthesis
// only fills silence. Each input batch is copied as it is read ahead, into
// a ring whose oldest slices are freed once the batch they became has been
// returned and is dead.
type SessionSynth struct {
	src       Source
	lookahead int64

	buf      []synthBatch // read ahead, not yet emitted
	innerEOF bool
	innerErr error
	carried  []span   // spans of emitted batches that outlive their second
	free     [][]span // span slices of emitted batches, for reuse
	visited  int64    // spans looked at by synthesize and prune (tests)

	lent Batch                  // the batch Next returned last
	row  [1]dbsim.SecondMetrics // its synthesized row, when it has one
	recs ring[dbsim.LogRecord]
	mets ring[dbsim.SecondMetrics]
}

// span is one statement's session occupancy.
type span struct {
	arrMs, emMs int64
	lockWait    bool
}

// synthBatch is a buffered batch with its records' spans and a lower bound
// on their arrival and emission times, which is what lets synthesize and
// prune pass over a batch without reading its spans.
type synthBatch struct {
	Batch
	spans         []span
	minArr, minEm int64
}

// synthLookaheadSec bounds how far past a second the synthesizer reads
// before computing that second's session count.
const synthLookaheadSec = 300

// NewSessionSynth wraps a dense source.
func NewSessionSynth(src Source) *SessionSynth {
	return &SessionSynth{src: src, lookahead: synthLookaheadSec}
}

// Next implements Source.
func (s *SessionSynth) Next() (Batch, error) {
	s.recs.pop(len(s.lent.Records))
	s.mets.pop(len(s.lent.Metrics))
	s.lent = Batch{}
	for !s.innerEOF && (len(s.buf) == 0 || s.buf[len(s.buf)-1].Second-s.buf[0].Second < s.lookahead) {
		b, err := s.src.Next()
		if err == io.EOF {
			s.innerEOF = true
			break
		}
		if err != nil {
			s.innerErr = err
			s.innerEOF = true
			break
		}
		s.buf = append(s.buf, s.index(b))
	}
	if len(s.buf) == 0 {
		if s.innerErr != nil {
			err := s.innerErr
			s.innerErr = nil
			return Batch{}, err
		}
		return Batch{}, io.EOF
	}
	b := s.buf[0].Batch
	s.lent = b // what the ring frees: the synthesized row is not the ring's
	if len(b.Metrics) == 0 {
		s.row[0] = s.synthesize(b.Second)
		b.Metrics = s.row[:]
	}
	s.prune(b.Second)
	// What outlives the second was carried over by prune.
	s.free = append(s.free, s.buf[0].spans[:0])
	s.buf = s.buf[:copy(s.buf, s.buf[1:])]
	return b, nil
}

// index copies a batch and computes its spans and their bounds.
func (s *SessionSynth) index(b Batch) synthBatch {
	b.Records, b.Metrics = s.recs.push(b.Records), s.mets.push(b.Metrics)
	sb := synthBatch{Batch: b, minArr: math.MaxInt64, minEm: math.MaxInt64}
	if n := len(s.free); n > 0 {
		sb.spans, s.free = s.free[n-1], s.free[:n-1]
	}
	for _, r := range b.Records {
		sp := span{arrMs: r.ArrivalMs, emMs: EmissionMs(r), lockWait: r.LockWaitMs > 0}
		sb.spans = append(sb.spans, sp)
		sb.minArr = min(sb.minArr, sp.arrMs)
		sb.minEm = min(sb.minEm, sp.emMs)
	}
	return sb
}

// synthesize computes second sec's metric row from the known spans, in the
// order they were read: the carried-over ones, then each buffered batch
// that holds a span arriving before the second ends. A span arriving later
// adds nothing to any of the row's terms, so passing over it leaves the
// float sum's addends and their order as they were.
func (s *SessionSynth) synthesize(sec int64) dbsim.SecondMetrics {
	t0 := sec * 1000
	t1 := t0 + 1000
	mid := t0 + 500
	row := dbsim.SecondMetrics{Second: sec}
	var avg float64
	add := func(spans []span) {
		s.visited += int64(len(spans))
		for _, sp := range spans {
			if sp.arrMs <= mid && mid < sp.emMs {
				row.ActiveSession++
			}
			if lo, hi := max(sp.arrMs, t0), min(sp.emMs, t1); hi > lo {
				avg += float64(hi-lo) / 1000
			}
			if sp.arrMs >= t0 && sp.arrMs < t1 {
				row.QPS++
				if sp.lockWait {
					row.RowLockWaits++
				}
			}
		}
	}
	add(s.carried)
	for i := range s.buf {
		if s.buf[i].minArr < t1 {
			add(s.buf[i].spans)
		}
	}
	row.AvgActiveSession = avg
	return row
}

// prune drops the spans that cannot overlap any second after sec — from
// every buffered batch, not only the one being emitted, whose survivors
// join the carried-over spans.
func (s *SessionSynth) prune(sec int64) {
	cut := (sec + 1) * 1000
	keep := func(dst, spans []span) []span {
		s.visited += int64(len(spans))
		for _, sp := range spans {
			if sp.emMs > cut {
				dst = append(dst, sp)
			}
		}
		return dst
	}
	s.carried = keep(s.carried[:0], s.carried)
	s.carried = keep(s.carried, s.buf[0].spans)
	for i := 1; i < len(s.buf); i++ {
		if b := &s.buf[i]; b.minEm <= cut {
			b.spans = keep(b.spans[:0], b.spans)
			b.minEm = cut + 1 // a bound, like minArr; the spans left are later
		}
	}
}

// Bounds implements Source by delegation.
func (s *SessionSynth) Bounds() (int64, int64) { return s.src.Bounds() }

// Stats implements Counting by delegation.
func (s *SessionSynth) Stats() Stats {
	if c, ok := s.src.(Counting); ok {
		return c.Stats()
	}
	return Stats{}
}

// Close implements Source.
func (s *SessionSynth) Close() error { return s.src.Close() }

// ring holds the slices of the batches a SessionSynth reads ahead in one
// buffer, first in, first out: a batch's slice is written after the newest
// one, or at the buffer's start when it does not fit before the end. A
// buffer that cannot take a batch beside the live ones is left to them and
// replaced by one twice its size. Not a free list: one slice is freed per
// second and taken by the next, so a second's slice would be the one freed
// a lookahead before, regrown whenever that second was smaller.
type ring[T any] struct {
	buf        []T
	head, tail int  // the live elements: buf[head:tail], or buf[head:end] and buf[:tail] when wrapped
	end        int  // when wrapped, the end of the live elements before the buffer's start
	wrapped    bool // the newest batches were written at the buffer's start
	live, old  int  // live batches in buf, and in the buffers it replaced
}

// push copies s in as the newest batch's and returns the copy. An empty s
// stays nil, as in a batch without records.
func (r *ring[T]) push(s []T) []T {
	n := len(s)
	if n == 0 {
		return nil
	}
	at := -1
	switch {
	case r.live == 0:
		r.head, r.tail, r.wrapped = 0, 0, false
		if n <= len(r.buf) {
			at = 0
		}
	case !r.wrapped && r.tail+n <= len(r.buf):
		at = r.tail
	case !r.wrapped && n <= r.head:
		r.end, r.wrapped, at = r.tail, true, 0
	case r.wrapped && r.tail+n <= r.head:
		at = r.tail
	}
	if at < 0 {
		r.old += r.live
		r.buf = make([]T, max(2*len(r.buf), 4*n))
		r.head, r.wrapped, r.live, at = 0, false, 0, 0
	}
	copy(r.buf[at:], s)
	r.tail = at + n
	r.live++
	return r.buf[at:r.tail:r.tail]
}

// pop frees the oldest batch's slice, n long.
func (r *ring[T]) pop(n int) {
	switch {
	case n == 0:
	case r.old > 0:
		r.old--
	default:
		r.live--
		if r.head += n; r.wrapped && r.head == r.end {
			r.head, r.wrapped = 0, false
		}
	}
}
