package main

import (
	"sort"
	"time"
)

// The hosts this benchmark runs on are shared: the same code runs 20–35 %
// slower for seconds or minutes at a time. On a ten-seed sweep at the
// benchmark's sizes the closed-loop timings as measured spread
// (interquartile range over median) by 22 % on fleet-replay, 21–25 % on
// fleet-logs and 12–15 % on diagnose-wide — at 25 %, the widest bound
// BENCHMARK.json may state, so as measured the benchmark could not tell its
// own two runs apart. So a closed-loop timed region — a set-up, a fleet
// pass, a DiagnoseFrame call — is bracketed by a short, fixed reference
// computation, and its times are reported at reference host speed: divided
// by how much slower than nominal the reference ran around it. A change to
// the pipeline moves the metric; a slow host moves both and cancels to first
// order (the same runs, scaled: 5–12 %, 6–16 % and 3–4 %). Nothing runs the
// reference inside a timed region, and the open-loop pass, too long to
// bracket, is reported as measured. Every lap is kept in
// bench.host_slowdown: a time as measured is the reported one times that.

// refNominal is the reference computation's duration on the baseline host
// in its fast state; it only fixes the scale of the reported numbers.
const refNominal = 2200 * time.Microsecond

var refSink float64

// refWork is the reference computation: like the pipeline it allocates,
// sorts, hashes into a map and accumulates floats, over a few hundred
// kilobytes. It must never change — the bounds of BENCHMARK.json compare
// numbers scaled by it across commits — and the smoke test pins its result.
func refWork() time.Duration {
	start := time.Now()
	const n = 20000
	a := make([]float64, n)
	x := uint64(88172645463325252)
	for i := range a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i] = float64(x%1000003) / 1000003
	}
	sort.Float64s(a)
	m := make(map[uint64]int, 256)
	for _, v := range a {
		m[uint64(v*2048)]++
	}
	var s float64
	for i := 1; i < n; i++ {
		s += a[i] * a[i-1]
	}
	refSink = s + float64(len(m))
	return time.Since(start)
}

// How many times a measurement of the host's speed runs the reference
// computation: about 25 ms around a pass of seconds, about 11 ms around a
// call of half a second.
const (
	refReps      = 11
	refRepsShort = 5
)

// hostSlowdown runs the reference computation reps times and returns how
// much slower than nominal its median ran: 1.0 on the baseline host at its
// best, 1.3 on a host 30 % slower right now.
func hostSlowdown(reps int) float64 {
	d := make(sample, reps)
	for i := range d {
		d[i] = float64(refWork())
	}
	return d.Median() / float64(refNominal)
}

// speedometer brackets consecutive timed regions with measurements of the
// host's speed.
type speedometer struct {
	reps int
	prev float64
	res  *result // gets every lap as bench.host_slowdown
}

func newSpeedometer(reps int, res *result) *speedometer {
	return &speedometer{reps: reps, prev: hostSlowdown(reps), res: res}
}

// lap measures again and returns the host's mean slowdown over the stretch
// since the previous measurement.
func (s *speedometer) lap() float64 {
	next := hostSlowdown(s.reps)
	mean := (s.prev + next) / 2
	s.prev = next
	s.res.layer["bench.host_slowdown"] = append(s.res.layer["bench.host_slowdown"], mean)
	return mean
}
