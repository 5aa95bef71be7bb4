//go:build !amd64

package session

func bucketCells(arr *int64, resp *float64, n int, startMs, dLo, dHi int64, startF, bucketLen, perMs float64, cells *[walkChunk]int32, vals *[walkChunk]float64) {
	panic("session: no observation-walk kernel on this architecture")
}

func periodMeets(arr *int64, resp *float64, n int, startMs, dHi int64, startF float64, periodLo *float64, periodLen float64) (meets, spans uint64) {
	panic("session: no observation-walk kernel on this architecture")
}
