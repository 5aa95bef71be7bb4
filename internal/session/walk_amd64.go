package session

// bucketCells is pass 1 of EstimateFrameBuckets for n observations, n a
// multiple of four; walk_amd64.s says how it keeps the Go walk's bits.
//
//go:noescape
func bucketCells(arr *int64, resp *float64, n int, startMs, dLo, dHi int64, startF, bucketLen, perMs float64, cells *[walkChunk]int32, vals *[walkChunk]float64)

// periodMeets is accumulateFrame's decision for n observations, n a
// multiple of four: which meet their seconds' periods on the direct path,
// and which take spanPeriods; walk_amd64.s says how.
//
//go:noescape
func periodMeets(arr *int64, resp *float64, n int, startMs, dHi int64, startF float64, periodLo *float64, periodLen float64) (meets, spans uint64)
