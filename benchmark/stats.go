package main

import (
	"runtime"
	"syscall"
	"time"

	"pinsql/internal/timeseries"
)

// sample is the values one metric took in a run — one per pass, per window
// or per call, whatever the metric's unit of repetition is. Its quantiles
// interpolate linearly between order statistics (q=0 is the minimum, q=1 the
// maximum).
type sample = timeseries.Series

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process counters the per-window cost metrics
// are deltas of.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

// readUsage stops the world briefly (ReadMemStats); call it outside any
// latency-measured region.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
