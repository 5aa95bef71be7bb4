//go:build !amd64

package cpufeat

// Off amd64 there are no kernels: every caller takes its Go path.
const (
	AVX  = false
	AVX2 = false
)
