// Package orphan is imported by nothing, so its init never runs.
package orphan

func Orphan() {}

func init() { fromOrphanInit() }

func fromOrphanInit() {}
