// Package fixture is the root package: its exports are roots.
package fixture

import "fixture/lib"

// API is exported, so it is reached, and so is what it calls.
func API() int { return lib.ForAPI() }
