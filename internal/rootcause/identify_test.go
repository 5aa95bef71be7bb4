package rootcause

import (
	"time"

	"pinsql/internal/timeseries"
)

// Identify runs the full module on one case, as a caller with one case per
// set of templates would: it partitions the case's templates and identifies
// on that partition. The pipeline computes a frame's partition once
// (NewPartition) and calls its Identify per case; this is the tests' way in.
func Identify(in Input, opt Options) *Result {
	if len(in.Templates) == 0 {
		return &Result{}
	}
	start := time.Now()
	exec := make([]timeseries.Series, len(in.Templates))
	for i := range in.Templates {
		exec[i] = in.Templates[i].Exec
	}
	p := NewPartition(exec, in.Metrics, opt.Tau, opt.Workers)
	partitionDur := time.Since(start)
	res := p.Identify(in, opt)
	res.ClusterDur += partitionDur
	return res
}
