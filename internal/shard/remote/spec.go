// Package remote runs shards as separate pinsqld worker processes behind
// the shard.Runtime seam. The coordinator side (Factory / Runtime)
// supervises one child process per shard and speaks a small versioned
// HTTP/JSON worker API to it; the worker side (MaybeWorker)
// opens the shard's fleet exactly as the in-process runtime would —
// same worker split, same shard-<k> data directory, same shard-labelled
// metrics — so the aggregated fleet report is byte-identical across the
// process boundary. That identity is the package's contract: every float
// in a WindowReport round-trips exactly through encoding/json, and the
// coordinator merges fragments in the same pinned instance-ID order as
// the in-process manager.
package remote

import (
	"fmt"

	"pinsql/internal/fleet"
)

// SpecSet is the serializable description of a fleet's instance specs.
// fleet.InstanceSpec carries closures (Setup/Inject/Trace) that cannot
// cross a process boundary, so the coordinator ships this recipe instead
// and both sides rebuild the concrete specs deterministically from it —
// the same way a restarted pinsqld rebuilds them from its flags.
type SpecSet struct {
	// Single names a one-instance fleet (pinsqld's default mode); empty
	// selects the n-instance DefaultFleet.
	Single string `json:"single,omitempty"`

	// Instances is the DefaultFleet size (ignored when Single is set).
	Instances int `json:"instances,omitempty"`

	Seed      int64 `json:"seed"`
	Windows   int   `json:"windows"`
	WindowSec int   `json:"window_sec"`

	// AutoRepair turns on repair execution for every instance;
	// AutoRepairIDs turns it on for specific ones (tests use this to
	// reproduce mixed fleets).
	AutoRepair    bool     `json:"auto_repair,omitempty"`
	AutoRepairIDs []string `json:"auto_repair_ids,omitempty"`
}

// Build rebuilds the concrete instance specs. Deterministic in the
// SpecSet alone: coordinator and worker construct identical fleets.
func (s SpecSet) Build() ([]fleet.InstanceSpec, error) {
	var specs []fleet.InstanceSpec
	switch {
	case s.Single != "":
		specs = []fleet.InstanceSpec{fleet.DefaultSpec(s.Single, s.Seed, s.Windows, s.WindowSec)}
	case s.Instances > 0:
		specs = fleet.DefaultFleet(s.Instances, s.Seed, s.Windows, s.WindowSec)
	default:
		return nil, fmt.Errorf("remote: spec set names no instances")
	}
	repair := make(map[string]bool, len(s.AutoRepairIDs))
	for _, id := range s.AutoRepairIDs {
		repair[id] = true
	}
	for i := range specs {
		if s.AutoRepair || repair[specs[i].ID] {
			specs[i].AutoRepair = true
		}
	}
	return specs, nil
}
