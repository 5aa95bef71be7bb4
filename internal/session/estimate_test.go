package session

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestOverlapMs(t *testing.T) {
	const qlo, qhi = 100, 300 // active [100, 300)
	tests := []struct {
		lo, hi float64
		want   float64
	}{
		{0, 100, 0},
		{0, 150, 50},
		{150, 250, 100},
		{250, 400, 50},
		{300, 400, 0},
		{0, 1000, 200},
	}
	for _, tc := range tests {
		if got := overlap(qlo, qhi, tc.lo, tc.hi); !almostEq(got, tc.want, 1e-9) {
			t.Errorf("overlap [%v,%v) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestSecondSpan(t *testing.T) {
	tests := []struct {
		name        string
		q           obs
		first, last int
	}{
		{"within one second", obs{ArrivalMs: 1100, ResponseMs: 200}, 1, 1},
		{"spans three seconds", obs{ArrivalMs: 900, ResponseMs: 1500}, 0, 2},
		{"starts before window", obs{ArrivalMs: -500, ResponseMs: 800}, 0, 0},
		{"ends after window", obs{ArrivalMs: 9500, ResponseMs: 5000}, 9, 9},
		{"entirely before window", obs{ArrivalMs: -900, ResponseMs: 100}, 0, -1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			first, last := secondSpan(tc.q.ArrivalMs, tc.q.ResponseMs, 0, 10)
			if first != tc.first || last != tc.last {
				t.Errorf("span = [%d,%d], want [%d,%d]", first, last, tc.first, tc.last)
			}
		})
	}
}

func TestEstimateNoBucketsSingleQuery(t *testing.T) {
	// One query active [500, 1500): expected session 0.5 in second 0 and
	// 0.5 in second 1.
	f := frameFromQueries(queries{"A": {{ArrivalMs: 500, ResponseMs: 1000}}}, 0, 3)
	est := EstimateFrameNoBuckets(f)
	s := dense(est.PerTemplate[0])
	if !almostEq(s[0], 0.5, 1e-9) || !almostEq(s[1], 0.5, 1e-9) || s[2] != 0 {
		t.Errorf("per-second estimate = %v", s)
	}
	if !almostEq(est.Total.Sum(), 1.0, 1e-9) {
		t.Errorf("total mass = %v, want 1 (1000 ms of activity)", est.Total.Sum())
	}
}

func TestEstimateByRTChargesArrivalSecond(t *testing.T) {
	f := frameFromQueries(queries{"A": {{ArrivalMs: 900, ResponseMs: 2000}}}, 0, 3)
	est := EstimateFrameByRT(f)
	s := dense(est.PerTemplate[0])
	// All 2 s of response time land in the arrival second — the
	// inaccuracy the paper calls out.
	if !almostEq(s[0], 2.0, 1e-9) || s[1] != 0 {
		t.Errorf("by-RT estimate = %v", s)
	}
	if est.SelBucket[0] != -1 {
		t.Error("ByRT must not select buckets")
	}
}

func TestEstimateBucketsSelectsCorrectBucket(t *testing.T) {
	// Construct a second where activity differs sharply across buckets:
	// 5 queries active only in the first half, 1 query active all second.
	var a []obs
	for i := 0; i < 5; i++ {
		a = append(a, obs{ArrivalMs: 0, ResponseMs: 500})
	}
	a = append(a, obs{ArrivalMs: 0, ResponseMs: 1000})
	f := frameFromQueries(queries{"A": a}, 0, 1)

	// SHOW STATUS sampled late in the second: saw only the long query.
	observed := timeseries.Series{1}
	est := EstimateFrameBuckets(f, observed, 10, 1)
	if est.SelBucket[0] < 5 {
		t.Errorf("selected bucket %d, want a late bucket (≥5)", est.SelBucket[0])
	}
	if !almostEq(dense(est.PerTemplate[0])[0], 1, 1e-9) {
		t.Errorf("estimate = %v, want 1", dense(est.PerTemplate[0])[0])
	}

	// SHOW STATUS sampled early: saw all 6.
	observed = timeseries.Series{6}
	est = EstimateFrameBuckets(f, observed, 10, 1)
	if est.SelBucket[0] >= 5 {
		t.Errorf("selected bucket %d, want an early bucket (<5)", est.SelBucket[0])
	}
	if !almostEq(dense(est.PerTemplate[0])[0], 6, 1e-9) {
		t.Errorf("estimate = %v, want 6", dense(est.PerTemplate[0])[0])
	}
}

func TestEstimateBucketsPerTemplateSplit(t *testing.T) {
	// Template A active early, template B active late; the bucket chosen
	// decides which template gets the session mass.
	f := frameFromQueries(queries{
		"A": {{ArrivalMs: 0, ResponseMs: 400}},
		"B": {{ArrivalMs: 600, ResponseMs: 400}},
	}, 0, 1)
	est := EstimateFrameBuckets(f, timeseries.Series{1}, 10, 1)
	posA, _ := f.Pos("A")
	posB, _ := f.Pos("B")
	a, b := dense(est.PerTemplate[posA])[0], dense(est.PerTemplate[posB])[0]
	// Either bucket family matches the observation of 1; exactly one
	// template must carry it.
	if !almostEq(a+b, 1, 1e-9) {
		t.Errorf("A+B = %v, want 1", a+b)
	}
	if a != 0 && b != 0 {
		t.Errorf("both templates active in the chosen bucket: A=%v B=%v", a, b)
	}
}

func TestEstimateQualityOrdering(t *testing.T) {
	// Synthetic ground truth: random queries; observation = expectation
	// in a known bucket. The bucketed estimator must beat by-RT on
	// correlation, reproducing Table III's ordering.
	rng := rand.New(rand.NewSource(5))
	seconds := 120
	q := queries{}
	ids := []sqltemplate.ID{"T1", "T2", "T3", "T4"}
	for _, id := range ids {
		for i := 0; i < 2500; i++ {
			start := rng.Int63n(int64(seconds) * 1000)
			rt := 20 + rng.Float64()*3000
			q[id] = append(q[id], obs{ArrivalMs: start, ResponseMs: rt})
		}
	}
	// Ground truth: instantaneous active count at offset 337 ms of each
	// second.
	observed := make(timeseries.Series, seconds)
	for sec := 0; sec < seconds; sec++ {
		instant := float64(sec*1000 + 337)
		for _, group := range q {
			for _, o := range group {
				if float64(o.ArrivalMs) <= instant && instant < float64(o.ArrivalMs)+o.ResponseMs {
					observed[sec]++
				}
			}
		}
	}

	f := frameFromQueries(q, 0, seconds)
	bkt := EstimateFrameBuckets(f, observed, 10, 1)
	nob := EstimateFrameNoBuckets(f)
	rt := EstimateFrameByRT(f)

	cb, mb := bkt.Quality(observed)
	cn, mn := nob.Quality(observed)
	cr, mr := rt.Quality(observed)

	if !(cb >= cn && cn > cr) {
		t.Errorf("correlation ordering violated: buckets=%v nobuckets=%v byRT=%v", cb, cn, cr)
	}
	if !(mb <= mn && mn < mr) {
		t.Errorf("MSE ordering violated: buckets=%v nobuckets=%v byRT=%v", mb, mn, mr)
	}
	if cb < 0.9 {
		t.Errorf("bucketed correlation = %v, want ≥ 0.9", cb)
	}
}

func TestEstimateBucketsDefaultK(t *testing.T) {
	f := frameFromQueries(queries{"A": {{ArrivalMs: 100, ResponseMs: 100}}}, 0, 1)
	est := EstimateFrameBuckets(f, timeseries.Series{1}, 0, 1)
	if est.SelBucket[0] < 0 || est.SelBucket[0] >= DefaultBuckets {
		t.Errorf("default K bucket = %d", est.SelBucket[0])
	}
}

func TestEstimateEmptyInputs(t *testing.T) {
	est := EstimateFrameBuckets(frameFromQueries(queries{}, 0, 5), nil, 10, 1)
	if est.Total.Sum() != 0 || len(est.Total) != 5 {
		t.Errorf("empty estimate = %+v", est)
	}
	est2 := EstimateFrameByRT(frameFromQueries(nil, 0, 3))
	if est2.Total.Sum() != 0 {
		t.Errorf("nil queries estimate = %v", est2.Total)
	}
}

// Property: every estimated value is non-negative, and per-template series
// sum to the total exactly.
func TestEstimateAdditivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seconds := 10
		q := queries{}
		for tpl := 0; tpl < 3; tpl++ {
			id := sqltemplate.ID(rune('A' + tpl))
			for i := 0; i < 30; i++ {
				q[id] = append(q[id], obs{
					ArrivalMs:  rng.Int63n(int64(seconds) * 1000),
					ResponseMs: rng.Float64() * 2000,
				})
			}
		}
		observed := make(timeseries.Series, seconds)
		for i := range observed {
			observed[i] = rng.Float64() * 10
		}
		est := EstimateFrameBuckets(frameFromQueries(q, 0, seconds), observed, 10, 1)
		for sec := 0; sec < seconds; sec++ {
			var sum float64
			for _, s := range est.PerTemplate {
				v := s.RangeSum(sec, sec+1)
				if v < 0 {
					return false
				}
				sum += v
			}
			if !almostEq(sum, est.Total[sec], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the whole-second expectation integrates to total busy time:
// Σ_t E[session_t] = Σ_q tres(q)/1000 for queries fully inside the window.
func TestNoBucketsMassConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seconds := 20
		var a []obs
		var mass float64
		for i := 0; i < 50; i++ {
			start := rng.Int63n(int64(seconds-5) * 1000)
			rt := rng.Float64() * 3000
			a = append(a, obs{ArrivalMs: start, ResponseMs: rt})
			mass += rt / 1000
		}
		est := EstimateFrameNoBuckets(frameFromQueries(queries{"A": a}, 0, seconds))
		return almostEq(est.Total.Sum(), mass, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
