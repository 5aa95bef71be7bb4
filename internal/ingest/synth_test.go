package ingest

import (
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pinsql/internal/dbsim"
)

func TestSessionSynthActiveSessions(t *testing.T) {
	// Three statements: one covering seconds 0..3, two short ones inside
	// second 1. Dense input via SliceSource.
	recs := []dbsim.LogRecord{
		{SQL: "UPDATE t SET x = 1", ArrivalMs: 200, ResponseMs: 3400, LockWaitMs: 50}, // [200, 3600)
		{SQL: "SELECT 1", ArrivalMs: 1100, ResponseMs: 300},                           // [1100, 1400)
		{SQL: "SELECT 2", ArrivalMs: 1600, ResponseMs: 200},                           // [1600, 1800)
	}
	src := NewSessionSynth(NewSliceSource(0, 4000, recs, nil))
	var rows []dbsim.SecondMetrics
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Metrics) != 1 {
			t.Fatalf("second %d: %d metric rows, want 1 synthesized", b.Second, len(b.Metrics))
		}
		rows = append(rows, b.Metrics[0])
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}

	// Mid-second instants: 500 (update only), 1500 (update; SELECT 1
	// ended at 1400, SELECT 2 starts at 1600), 2500, 3500.
	wantActive := []float64{1, 1, 1, 1}
	// QPS keyed by arrival second.
	wantQPS := []int{1, 2, 0, 0}
	for i, r := range rows {
		if r.ActiveSession != wantActive[i] {
			t.Errorf("second %d: ActiveSession = %v, want %v", i, r.ActiveSession, wantActive[i])
		}
		if r.QPS != wantQPS[i] {
			t.Errorf("second %d: QPS = %d, want %d", i, r.QPS, wantQPS[i])
		}
	}
	// Fractional occupancy: second 1 holds 1.0 (update) + 0.3 + 0.2.
	if got := rows[1].AvgActiveSession; math.Abs(got-1.5) > 1e-9 {
		t.Errorf("second 1 AvgActiveSession = %v, want 1.5", got)
	}
	if rows[0].RowLockWaits != 1 {
		t.Errorf("second 0 RowLockWaits = %d, want 1 (lock-waiting arrival)", rows[0].RowLockWaits)
	}
}

func TestSessionSynthLeavesSamplerRowsAlone(t *testing.T) {
	rows := []dbsim.SecondMetrics{{Second: 0, ActiveSession: 42}}
	src := NewSessionSynth(NewSliceSource(0, 2000, nil, rows))
	b0, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b0.Metrics) != 1 || b0.Metrics[0].ActiveSession != 42 {
		t.Fatalf("sampler row was rewritten: %+v", b0.Metrics)
	}
	b1, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Metrics) != 1 || b1.Metrics[0].ActiveSession != 0 {
		t.Fatalf("silent second not synthesized: %+v", b1.Metrics)
	}
}

func TestSessionSynthLookaheadSeesLongStatement(t *testing.T) {
	// A statement finishing (and therefore appearing) at second 8 must
	// still count toward second 1 when the lookahead covers it.
	recs := []dbsim.LogRecord{
		{SQL: "SELECT SLEEP(7)", ArrivalMs: 1200, ResponseMs: 7000}, // [1200, 8200)
	}
	src := NewSessionSynth(NewSliceSource(0, 10000, recs, nil))
	src.lookahead = 20
	var rows []dbsim.SecondMetrics
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, b.Metrics...)
	}
	for sec := 2; sec <= 7; sec++ {
		if rows[sec].ActiveSession != 1 {
			t.Errorf("second %d: ActiveSession = %v, want 1 (long statement spans it)", sec, rows[sec].ActiveSession)
		}
	}
	if rows[9].ActiveSession != 0 {
		t.Errorf("second 9: ActiveSession = %v, want 0", rows[9].ActiveSession)
	}
}

// flatSynth is the synthesizer as it was before it indexed spans by batch:
// one flat slice of every buffered span, walked whole by synthesize and by
// prune for every emitted second. It is the reference of
// TestSessionSynthMatchesFlatReference.
type flatSynth struct {
	src       Source
	lookahead int64
	buf       []Batch
	innerEOF  bool
	spans     []span
}

func (s *flatSynth) Next() (Batch, error) {
	for !s.innerEOF && (len(s.buf) == 0 || s.buf[len(s.buf)-1].Second-s.buf[0].Second < s.lookahead) {
		b, err := s.src.Next()
		if err != nil {
			s.innerEOF = true
			break
		}
		for _, r := range b.Records {
			s.spans = append(s.spans, span{arrMs: r.ArrivalMs, emMs: EmissionMs(r), lockWait: r.LockWaitMs > 0})
		}
		s.buf = append(s.buf, cloneBatch(b))
	}
	if len(s.buf) == 0 {
		return Batch{}, io.EOF
	}
	b := s.buf[0]
	s.buf = s.buf[1:]
	if len(b.Metrics) == 0 {
		t0 := b.Second * 1000
		t1, mid := t0+1000, t0+500
		row := dbsim.SecondMetrics{Second: b.Second}
		for _, sp := range s.spans {
			if sp.arrMs <= mid && mid < sp.emMs {
				row.ActiveSession++
			}
			if lo, hi := max(sp.arrMs, t0), min(sp.emMs, t1); hi > lo {
				row.AvgActiveSession += float64(hi-lo) / 1000
			}
			if sp.arrMs >= t0 && sp.arrMs < t1 {
				row.QPS++
				if sp.lockWait {
					row.RowLockWaits++
				}
			}
		}
		b.Metrics = []dbsim.SecondMetrics{row}
	}
	cut := (b.Second + 1) * 1000
	kept := s.spans[:0]
	for _, sp := range s.spans {
		if sp.emMs > cut {
			kept = append(kept, sp)
		}
	}
	s.spans = kept
	return b, nil
}

// synthStream draws a dense batch sequence that exercises every way a span
// can relate to the second it is read in: short statements, statements
// longer than the lookahead, zero-duration statements on a second boundary,
// stragglers sitting in a later batch than their emission second (what
// Replay's forward clamp produces), records clamped into the final second,
// and batches that already carry a sampler row.
func synthStream(rng *rand.Rand, seconds int) []Batch {
	batches := make([]Batch, seconds)
	for s := range batches {
		b := &batches[s]
		b.Second = int64(s)
		for n := rng.Intn(6); n > 0; n-- {
			em := int64(s)*1000 + rng.Int63n(1000)
			var resp float64
			switch rng.Intn(8) {
			case 0: // longer than any lookahead under test
				resp = float64(rng.Intn(40_000))
			case 1: // zero duration, on the boundary
				em, resp = int64(s)*1000, 0
			case 2: // straggler: emitted up to five seconds before its batch
				em -= rng.Int63n(5000)
				resp = float64(rng.Intn(3000))
			case 3: // overflow: emitted after its batch's second
				em += rng.Int63n(3000)
				resp = float64(rng.Intn(2000)) + 0.75
			default:
				resp = float64(rng.Intn(1500)) + rng.Float64()
			}
			r := dbsim.LogRecord{ArrivalMs: em - int64(resp), ResponseMs: resp}
			if rng.Intn(4) == 0 {
				r.LockWaitMs = 1
			}
			if rng.Intn(16) == 0 {
				r.Throttled = true // emitted at arrival
			}
			b.Records = append(b.Records, r)
		}
		if rng.Intn(10) == 0 {
			b.Metrics = []dbsim.SecondMetrics{{Second: int64(s), ActiveSession: 42}}
		}
	}
	return batches
}

func TestSessionSynthMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batches := synthStream(rng, 40+rng.Intn(80))
		lookahead := []int{1, 2, 7, 30, 300}[seed%5]
		got := NewSessionSynth(&SliceSource{batches: batches})
		got.lookahead = int64(lookahead)
		want := &flatSynth{src: &SliceSource{batches: batches}, lookahead: int64(lookahead)}
		for {
			gb, gerr := got.Next()
			wb, werr := want.Next()
			if gerr != werr {
				t.Fatalf("seed %d: errors %v and %v", seed, gerr, werr)
			}
			if gerr == io.EOF {
				break
			}
			// DeepEqual on the rows: AvgActiveSession is a float sum and must
			// come out of the same addends in the same order.
			if !reflect.DeepEqual(gb, wb) {
				t.Fatalf("seed %d lookahead %d second %d:\nindexed %+v\nflat    %+v", seed, lookahead, wb.Second, gb.Metrics, wb.Metrics)
			}
		}
	}
}

// A budget of work, not of time: on a stream of short statements the spans
// the synthesizer looks at per emitted second are those of the seconds next
// to it, however far it reads ahead.
func TestSessionSynthWorkIndependentOfLookahead(t *testing.T) {
	const seconds, perSecond = 400, 50
	batches := make([]Batch, seconds)
	for s := range batches {
		batches[s].Second = int64(s)
		for i := 0; i < perSecond; i++ {
			em := int64(s)*1000 + int64(i)*20
			batches[s].Records = append(batches[s].Records, dbsim.LogRecord{ArrivalMs: em - 30, ResponseMs: 30})
		}
	}
	visitedPerSecond := func(lookahead int) float64 {
		src := NewSessionSynth(&SliceSource{batches: batches})
		src.lookahead = int64(lookahead)
		for {
			if _, err := src.Next(); err == io.EOF {
				break
			}
		}
		return float64(src.visited) / seconds
	}
	short, long := visitedPerSecond(5), visitedPerSecond(300)
	// Each second's own spans twice (synthesize, prune), and the next
	// second's, whose first statements arrived in this one.
	if short > 4*perSecond || long > short*1.05 {
		t.Errorf("spans visited per emitted second: %.0f at lookahead 5, %.0f at lookahead 300; want at most %d and no growth",
			short, long, 4*perSecond)
	}
}

// The ring hands every batch a slice of its own: pushing and popping first
// in, first out, whatever the sizes and however many batches are live, no
// live slice is written over. Small rings, small batches and a few live
// ones put the wrap and the growth at every boundary often.
func TestRingKeepsLiveBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type batch struct {
		s     []int
		first int // what s[0] was pushed as; s counts up from it
	}
	for trial := 0; trial < 2000; trial++ {
		var r ring[int]
		var live []batch // oldest first
		maxLive, maxN, next := 1+rng.Intn(8), 1+rng.Intn(6), 0
		for step := 0; step < 300; step++ {
			if len(live) > 0 && (len(live) >= maxLive || rng.Intn(2) == 0) {
				oldest := live[0]
				for i, v := range oldest.s {
					if v != oldest.first+i {
						t.Fatalf("trial %d step %d: a live slice was written over: %v, pushed from %d", trial, step, oldest.s, oldest.first)
					}
				}
				r.pop(len(oldest.s))
				live = live[1:]
				continue
			}
			in := make([]int, rng.Intn(maxN+1))
			for i := range in {
				in[i] = next
				next++
			}
			got := r.push(in)
			if len(in) == 0 {
				if got != nil {
					t.Fatalf("trial %d step %d: an empty batch got %v", trial, step, got)
				}
				continue
			}
			live = append(live, batch{got, in[0]})
		}
	}
}
