package ingest

import (
	"io"
	"sync/atomic"

	"pinsql/internal/dbsim"
)

// Player pumps a Source through the pipeline one monitoring window at a
// time. It owns the window arithmetic the fleet used to delegate to
// dbsim.Instance.Run: consume exactly the batches of [fromMs, toMs),
// stream their records into a sink in batch order, and densify the metric
// rows into the window-relative per-second slice the collector and the
// report's mean gauges expect.
//
// PlayWindow and SkipTo are single-goroutine (the fleet's per-instance sim
// slot); Stats is safe to call concurrently — it backs the /metrics
// ingest-health gauges.
type Player struct {
	src     Source
	pending *Batch // read but not yet consumed (first batch past a window)
	eof     bool

	records  atomic.Int64
	late     atomic.Int64
	playhead atomic.Int64 // trace ms up to which batches were consumed
}

// NewPlayer wraps a source.
func NewPlayer(src Source) *Player {
	return &Player{src: src}
}

// PlayWindow is PlayWindowBatches delivering record by record.
func (p *Player) PlayWindow(fromMs, toMs int64, sink dbsim.LogSink) ([]dbsim.SecondMetrics, bool, error) {
	if sink == nil {
		return p.PlayWindowBatches(fromMs, toMs, nil)
	}
	return p.PlayWindowBatches(fromMs, toMs, func(recs []dbsim.LogRecord) {
		for _, rec := range recs {
			sink(rec)
		}
	})
}

// PlayWindowBatches consumes the batches of [fromMs, toMs): each second's
// records go to sink (when non-nil) whole, in batch order — the slice is
// valid only until sink returns, since a source may reuse its buffer —
// and metric rows are placed into a dense window-relative slice (one row
// per window second, zero rows where the trace had none, last row wins on
// duplicates, out-of-window rows dropped). It returns that slice, whether
// the source may have more batches after toMs, and an error. A window the
// source cannot reach at all — exhausted before its first second — returns
// io.EOF.
//
// The dense-batch contract is what bounds the read: after consuming
// second toMs-1 the Player stops without pulling the next batch, so a
// lazily simulating source is never asked to produce window w+1 while
// window w is being played.
func (p *Player) PlayWindowBatches(fromMs, toMs int64, sink func([]dbsim.LogRecord)) ([]dbsim.SecondMetrics, bool, error) {
	fromSec := fromMs / 1000
	seconds := (toMs - fromMs + 999) / 1000
	toSec := fromSec + seconds
	rows := make([]dbsim.SecondMetrics, seconds)
	for i := range rows {
		rows[i].Second = int64(i)
	}
	consumed := false
	for {
		if p.pending == nil {
			if p.eof {
				break
			}
			b, err := p.src.Next()
			if err == io.EOF {
				p.eof = true
				break
			}
			if err != nil {
				return nil, false, err
			}
			p.pending = &b
		}
		if p.pending.Second >= toSec {
			break
		}
		b := *p.pending
		p.pending = nil
		consumed = true
		if b.Last {
			p.eof = true
		}
		late := 0
		for i := range b.Records {
			if b.Records[i].ArrivalMs < fromMs {
				// A straggler whose statement started before the window:
				// the collector skips it (and therefore never archives
				// it); count it so the loss is visible on /metrics.
				late++
			}
		}
		p.late.Add(int64(late))
		if sink != nil && len(b.Records) > 0 {
			sink(b.Records)
		}
		p.records.Add(int64(len(b.Records)))
		for _, m := range b.Metrics {
			rel := m.Second - fromSec
			if rel < 0 || rel >= seconds {
				continue
			}
			m.Second = rel
			rows[rel] = m
		}
		if end := (b.Second + 1) * 1000; end > p.playhead.Load() {
			p.playhead.Store(end)
		}
		if b.Second == toSec-1 {
			break // window complete; do not pull into the next one
		}
	}
	more := p.pending != nil || !p.eof
	if !consumed && !more {
		return nil, false, io.EOF
	}
	return rows, more, nil
}

// SkipTo advances the playhead to trace offset ms without delivering
// anything — crash recovery resuming at the first uncommitted window
// boundary. Sources implementing Seeker jump (the simulator re-derives
// any window from its seed instead of replaying the skipped ones, exactly
// as the pre-seam recovery did); generic sources are drained batch by
// batch. Skipped records count toward neither Records nor Late.
func (p *Player) SkipTo(ms int64) error {
	if cur := p.playhead.Load(); cur < ms {
		p.playhead.Store(ms)
	}
	if s, ok := p.src.(Seeker); ok {
		if err := s.SeekMs(ms); err != nil {
			return err
		}
		p.pending = nil
		return nil
	}
	sec := ms / 1000
	for {
		if p.pending == nil {
			if p.eof {
				return nil
			}
			b, err := p.src.Next()
			if err == io.EOF {
				p.eof = true
				return nil
			}
			if err != nil {
				return err
			}
			p.pending = &b
		}
		if p.pending.Second >= sec {
			return nil
		}
		p.pending = nil
	}
}

// PlayerStats is the ingest-health snapshot behind the per-instance
// /metrics series.
type PlayerStats struct {
	Records     int64   // records delivered into the pipeline
	Late        int64   // delivered records that arrived before their window
	ParseErrors int64   // malformed inputs the source chain skipped
	LagSeconds  float64 // known trace end minus the playhead, in seconds
}

// Stats snapshots the player's counters, folding in the source chain's
// parse errors and the lag against its (possibly best-effort) bounds.
func (p *Player) Stats() PlayerStats {
	st := PlayerStats{
		Records: p.records.Load(),
		Late:    p.late.Load(),
	}
	if c, ok := p.src.(Counting); ok {
		st.ParseErrors = c.Stats().ParseErrors
	}
	if _, to := p.src.Bounds(); to > 0 {
		if lag := to - p.playhead.Load(); lag > 0 {
			st.LagSeconds = float64(lag) / 1000
		}
	}
	return st
}

// Close closes the underlying source.
func (p *Player) Close() error { return p.src.Close() }
