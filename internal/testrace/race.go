//go:build race

// Package testrace tells a test whether the race detector is on: under it
// sync.Pool drops a quarter of what it is handed, so a test that counts what
// a pool saved has nothing exact to count.
package testrace

const Enabled = true
