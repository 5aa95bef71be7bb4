//go:build !race

package testrace

const Enabled = false
