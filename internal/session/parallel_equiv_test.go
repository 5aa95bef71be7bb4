package session

// Workers-equivalence property for the sharded bucket estimator: for
// random query logs, EstimateFrameBuckets must return the exact same
// estimate — selected buckets, per-template series, and total, down to
// floating-point bits — for every worker count.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

// randomQueries builds a query log with boundary-hostile observations:
// arrivals before the window, responses spilling past it, zero response
// times, and sub-millisecond bursts.
func randomQueries(rng *rand.Rand, startMs int64, seconds int) (queries, timeseries.Series) {
	q := make(queries)
	nTemplates := rng.Intn(9)
	for t := 0; t < nTemplates; t++ {
		id := sqltemplate.ID(fmt.Sprintf("T%02d", t))
		nObs := rng.Intn(41)
		for o := 0; o < nObs; o++ {
			arrival := startMs + int64(rng.Intn(seconds*1000+4000)) - 2000
			q[id] = append(q[id], obs{
				ArrivalMs:  arrival,
				ResponseMs: rng.Float64() * 5000,
			})
		}
	}
	observed := make(timeseries.Series, seconds)
	for i := range observed {
		observed[i] = rng.Float64() * float64(nTemplates+1)
	}
	return q, observed
}

func TestEstimateBucketsWorkersEquivalence(t *testing.T) {
	const (
		startMs = 1000
		seconds = 30
		k       = 10
	)
	forEachWalk(t, func(t *testing.T, kernel bool) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			raw, observed := randomQueries(rng, startMs, seconds)
			f := frameFromQueries(raw, startMs, seconds)
			// One reference for every worker count: the estimate is its
			// bits, and so the bits of every other count's.
			for _, w := range []int{1, 2, 4, 0} { // 0 = GOMAXPROCS
				checkAllEstimators(t, fmt.Sprintf("seed %d workers=%d", seed, w), f, observed, k, w, kernel)
			}
			return !t.Failed()
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Error(err)
		}
	})
}

// TestEstimateBucketsWrapperIsSequential pins what Workers = 1 means: one
// block over the whole window on the calling goroutine, which is the
// sequential all-buckets walk of the reference estimator, bit for bit.
func TestEstimateBucketsWrapperIsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	raw, observed := randomQueries(rng, 0, 20)
	f := frameFromQueries(raw, 0, 20)
	checkFrameEstimate(t, "workers=1", f, EstimateFrameBuckets(f, observed, 10, 1), refEstimateBuckets(f, observed, 10))
}
