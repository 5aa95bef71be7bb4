package impact

// Workers-equivalence property for the fanned-out H-SQL scorer: RankFrame must
// return the identical ranked slice — order and float bits — for every
// worker count.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pinsql/internal/sqltemplate"
	"pinsql/internal/timeseries"
)

func randomSessions(rng *rand.Rand, n int) (map[sqltemplate.ID]timeseries.Series, timeseries.Series) {
	sessions := make(map[sqltemplate.ID]timeseries.Series)
	inst := make(timeseries.Series, n)
	for t, nT := 0, 1+rng.Intn(20); t < nT; t++ {
		s := make(timeseries.Series, n)
		base := rng.Float64() * 10
		for i := range s {
			s[i] = base + rng.Float64()
			inst[i] += s[i]
		}
		sessions[sqltemplate.ID(fmt.Sprintf("Q%02d", t))] = s
	}
	return sessions, inst
}

func TestRankWorkersEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(200)
		sessions, inst := randomSessions(rng, n)
		f, dense := sessionFrame(sessions)
		byPos := sparse(dense)
		as := n / 3
		ae := 2 * n / 3
		opt := DefaultOptions()
		opt.Workers = 1
		seq := RankFrame(f, byPos, inst, as, ae, opt)
		for _, w := range []int{2, 5, 0} { // 0 = GOMAXPROCS
			opt.Workers = w
			if par := RankFrame(f, byPos, inst, as, ae, opt); !reflect.DeepEqual(seq, par) {
				t.Logf("seed %d workers=%d: rankings diverged", seed, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
