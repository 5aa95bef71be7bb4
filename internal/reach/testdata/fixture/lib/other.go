//go:build !amd64

package lib

// Excluded under linux/amd64: neither this func nor its call is seen.
func elsewhere() { onlyElsewhere() }
