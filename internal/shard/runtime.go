package shard

import "pinsql/internal/fleet"

// Runtime is one shard's engine as the aggregating control plane sees it.
// The Manager never touches a concrete engine: the in-process fleet
// (localRuntime) and the worker-process supervisor (internal/shard/remote)
// both satisfy this seam, which is exactly the coordinator/worker cut —
// everything the merge layer consumes, nothing the hot path owns.
//
// Lifecycle mirrors fleet.Fleet: Start launches the shard's scheduler,
// Wait blocks until it settles, Stop drains (queued windows still
// diagnosed and committed, durable topics sealed), Close releases the
// engine. Reads (IDs, Diagnoses, Reports, Status, JournalStats,
// MetricsText) are safe while the shard runs and keep working after
// Stop — a drained worker process still serves its committed state until
// Close tells it to exit.
type Runtime interface {
	Start()
	Wait() error
	Stop() error
	Close() error

	// IDs returns the shard's instance IDs in sorted order.
	IDs() []string

	// Diagnoses returns one instance's committed window reports; ok is
	// false for an instance the shard does not own (or, for a remote
	// shard, when the worker cannot be reached).
	Diagnoses(id string) ([]*fleet.WindowReport, bool)

	// Reports returns every owned instance's committed reports keyed by
	// instance ID — the shard's report fragment, one round trip.
	Reports() (map[string][]*fleet.WindowReport, error)

	// Status snapshots the shard's fleet.Status.
	Status() (fleet.Status, error)

	// JournalStats reports the shard journal's group-commit accounting
	// (fsynced batches, windows covered). Zero without a DataDir or when
	// a remote worker is unreachable.
	JournalStats() (batches, windows int64)

	// MetricsText returns the shard's own Prometheus text exposition for
	// engines that keep a private registry (worker processes). Engines
	// whose series already live in the coordinator's registry return "".
	MetricsText() (string, error)

	// Up reports liveness: always true in-process; for a remote shard,
	// whether the supervised worker is currently running and ready.
	Up() bool
}

// RuntimeFactory opens the engine for one shard. The Manager hands it the
// shard index, the total shard count, the specs the pinned Assign hash
// routed to this shard, and the fully resolved per-shard fleet options
// (worker split, shard-<k> data dir, shard-labelled metrics registry,
// hooks). NewLocalRuntime is the in-process default; remote.Factory
// supervises a pinsqld worker process instead.
type RuntimeFactory func(sh, shards int, specs []fleet.InstanceSpec, fopt fleet.Options) (Runtime, error)

// NewLocalRuntime is the in-process RuntimeFactory: the shard engine is a
// fleet.Fleet in this process, its series registered straight into the
// shared registry under the shard label.
func NewLocalRuntime(sh, shards int, specs []fleet.InstanceSpec, fopt fleet.Options) (Runtime, error) {
	flt, err := fleet.New(specs, fopt)
	if err != nil {
		return nil, err
	}
	return &localRuntime{flt: flt}, nil
}

// localRuntime adapts *fleet.Fleet to the Runtime seam.
type localRuntime struct {
	flt *fleet.Fleet
}

func (l *localRuntime) Start()        { l.flt.Start() }
func (l *localRuntime) Wait() error   { return l.flt.Wait() }
func (l *localRuntime) Stop() error   { return l.flt.Stop() }
func (l *localRuntime) Close() error  { return l.flt.Close() }
func (l *localRuntime) IDs() []string { return l.flt.IDs() }

func (l *localRuntime) Diagnoses(id string) ([]*fleet.WindowReport, bool) {
	return l.flt.Diagnoses(id)
}

func (l *localRuntime) Reports() (map[string][]*fleet.WindowReport, error) {
	return l.flt.Reports(), nil
}

func (l *localRuntime) Status() (fleet.Status, error) {
	return l.flt.Status(), nil
}

func (l *localRuntime) JournalStats() (batches, windows int64) {
	return l.flt.JournalStats()
}

func (l *localRuntime) MetricsText() (string, error) { return "", nil }

func (l *localRuntime) Up() bool { return true }
