package ingest

import (
	"io"
	"sort"
	"time"

	"pinsql/internal/dbsim"
)

const (
	// replayMaxGapSec caps how many consecutive idle trace seconds survive
	// into the replay timeline; a longer recording gap collapses to exactly
	// this many empty seconds (monitoring windows should measure the
	// workload, not the collector's downtime).
	replayMaxGapSec = 5

	// replaySlackSec bounds how far out of order the raw stream may be: a
	// batch is held until every second that could still precede it has
	// been seen.
	replaySlackSec = 5
)

// Replay turns a raw adapter stream (sparse batches, absolute trace
// epoch, locally out of order) into the dense contract the Player needs:
// consecutive seconds starting at 0, one batch each. It rebases the
// timeline so the first active trace second becomes second 0 (rewriting
// record timestamps to match), re-orders within a bounded slack,
// compresses long recording gaps, and optionally paces emission against
// the wall clock. Each input batch is copied into the pen, in storage that
// is recycled once the batch it became has been returned and is dead.
type Replay struct {
	src   Source
	speed float64

	pend     []Batch // out-of-order holding pen, sorted by trace second
	maxSeen  int64   // highest trace second pulled so far
	innerEOF bool

	outQ []Batch // dense, rebased, ready to emit
	lent Batch   // the batch Next returned last
	recs recycler[dbsim.LogRecord]
	mets recycler[dbsim.SecondMetrics]

	started   bool
	prevTrace int64 // last trace second flushed
	shiftSec  int64 // trace second − output second
	outSec    int64 // next output second to emit (== #seconds emitted)

	lastEmit time.Time
}

// NewReplay wraps a raw source in the replay clock. speed is the wall-clock
// pacing factor: 1 replays in real time, 2 twice as fast, 0 as fast as the
// pipeline drains. Pacing changes only timing, never content — the batch
// sequence is identical at every speed.
func NewReplay(src Source, speed float64) *Replay {
	return &Replay{src: src, speed: speed}
}

// Next implements Source.
func (r *Replay) Next() (Batch, error) {
	r.recs.put(r.lent.Records)
	r.mets.put(r.lent.Metrics)
	r.lent = Batch{}
	for len(r.outQ) == 0 {
		if r.innerEOF {
			if len(r.pend) == 0 {
				return Batch{}, io.EOF
			}
			r.flushReady()
			continue
		}
		b, err := r.src.Next()
		if err == io.EOF {
			r.innerEOF = true
			r.flushReady()
			continue
		}
		if err != nil {
			return Batch{}, err
		}
		r.hold(b)
		r.flushReady()
	}
	out := r.outQ[0]
	r.outQ = r.outQ[:copy(r.outQ, r.outQ[1:])]
	if r.innerEOF && len(r.pend) == 0 && len(r.outQ) == 0 {
		out.Last = true
	}
	r.lent = out
	r.pace()
	return out, nil
}

// hold inserts a raw batch into the slack pen, merging same-second
// batches (later arrivals append after earlier ones, preserving the raw
// stream's within-second order).
func (r *Replay) hold(b Batch) {
	if r.started && b.Second <= r.prevTrace {
		// Older than the slack window: clamp forward to the oldest
		// second that can still be emitted, so nothing is lost.
		b.Second = r.prevTrace + 1
	}
	if b.Second > r.maxSeen {
		r.maxSeen = b.Second
	}
	i := sort.Search(len(r.pend), func(i int) bool { return r.pend[i].Second >= b.Second })
	if i < len(r.pend) && r.pend[i].Second == b.Second {
		p := &r.pend[i]
		p.Records, p.Metrics = r.recs.extend(p.Records, b.Records), r.mets.extend(p.Metrics, b.Metrics)
		return
	}
	b.Records, b.Metrics = r.recs.extend(nil, b.Records), r.mets.extend(nil, b.Metrics)
	r.pend = append(r.pend, Batch{})
	copy(r.pend[i+1:], r.pend[i:])
	r.pend[i] = b
}

// flushReady moves every pen batch that is out of slack danger — older
// than maxSeen by more than replaySlackSec, or everything on inner EOF — into
// the dense output queue, synthesizing empty seconds for (capped) gaps.
func (r *Replay) flushReady() {
	for len(r.pend) > 0 {
		b := r.pend[0]
		if !r.innerEOF && b.Second+replaySlackSec >= r.maxSeen {
			return
		}
		r.pend = r.pend[:copy(r.pend, r.pend[1:])]
		r.emit(b)
	}
}

// emit rebases one trace batch onto the replay timeline, preceded by its
// gap's empty seconds.
func (r *Replay) emit(b Batch) {
	if !r.started {
		r.started = true
		r.shiftSec = b.Second
		r.prevTrace = b.Second - 1
	}
	gap := b.Second - r.prevTrace - 1 // idle trace seconds skipped over
	keep := min(gap, replayMaxGapSec)
	r.shiftSec += gap - keep
	for i := int64(0); i < keep; i++ {
		r.outQ = append(r.outQ, Batch{Second: r.outSec})
		r.outSec++
	}
	shiftMs := r.shiftSec * 1000
	for i := range b.Records {
		b.Records[i].ArrivalMs -= shiftMs
	}
	for i := range b.Metrics {
		b.Metrics[i].Second = r.outSec
	}
	r.prevTrace = b.Second
	b.Second = r.outSec
	r.outSec++
	r.outQ = append(r.outQ, b)
}

// pace sleeps so emission tracks the wall clock at the configured speed.
func (r *Replay) pace() {
	if r.speed <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / r.speed)
	now := time.Now()
	if !r.lastEmit.IsZero() {
		if wait := interval - now.Sub(r.lastEmit); wait > 0 {
			time.Sleep(wait)
			now = now.Add(wait)
		}
	}
	r.lastEmit = now
}

// Bounds implements Source: the replay timeline's extent so far — exact
// once the inner source is drained, growing before that.
func (r *Replay) Bounds() (int64, int64) {
	// outSec counts every second already placed on the output queue;
	// pen batches extend the timeline by at least their own count.
	to := r.outSec + int64(len(r.pend))
	return 0, to * 1000
}

// Stats implements Counting by delegation.
func (r *Replay) Stats() Stats {
	if c, ok := r.src.(Counting); ok {
		return c.Stats()
	}
	return Stats{}
}

// Close implements Source.
func (r *Replay) Close() error { return r.src.Close() }

// recycler keeps the slices of dead batches for reuse, so the slack pen
// allocates none in steady state. Not a ring: the pen frees out of the
// order it fills — a late second is emitted before seconds read ahead of
// it — and a merge extends a slice in place.
type recycler[T any] struct{ free [][]T }

// extend appends src to dst. A nil dst starts as a recycled slice: the
// smallest free one that holds src, else the largest, which grows — so a
// small slice is not regrown for a large second while a large one lies
// idle. Nothing appended to nil stays nil, as in a batch without records.
func (p *recycler[T]) extend(dst, src []T) []T {
	if dst == nil && len(src) > 0 && len(p.free) > 0 {
		best := 0
		for i, s := range p.free {
			c, b := cap(s), cap(p.free[best])
			if fits, bestFits := c >= len(src), b >= len(src); fits && (!bestFits || c < b) || !fits && !bestFits && c > b {
				best = i
			}
		}
		last := len(p.free) - 1
		dst = p.free[best]
		p.free[best], p.free[last] = p.free[last], nil
		p.free = p.free[:last]
	}
	return append(dst, src...)
}

// put hands back a slice whose batch is dead.
func (p *recycler[T]) put(s []T) {
	if cap(s) > 0 {
		p.free = append(p.free, s[:0])
	}
}
