package dbsim

import (
	"fmt"
	"math/rand"
)

// Config describes a database instance.
type Config struct {
	Cores        int     // CPU cores (processor-sharing capacity)
	IOPSCapacity float64 // I/O operations per second at 100 % iops_usage
	PerfSchema   PerfSchemaConfig
	Seed         int64 // randomness for SHOW STATUS offsets
	// LockWaitTimeoutMs aborts statements that wait on a lock longer than
	// this (InnoDB's innodb_lock_wait_timeout, default 50 s). It is what
	// keeps real lock storms bounded: victims error out instead of piling
	// up forever. 0 selects the default; negative disables timeouts.
	LockWaitTimeoutMs int64
}

// DefaultConfig mirrors the average ADAC instance of the paper (§VIII-A:
// 15.9 cores, 87.9 GiB memory, which this model never makes a bottleneck);
// 16 cores keeps the arithmetic simple.
func DefaultConfig() Config {
	return Config{
		Cores:             16,
		IOPSCapacity:      20000,
		PerfSchema:        PerfSchemaOff,
		Seed:              1,
		LockWaitTimeoutMs: 50_000,
	}
}

// table holds the per-table lock state.
type table struct {
	name string
	rows int64

	// Row locks: key → holding query. Held for statement duration.
	rowLocks map[int]*activeQuery
	// rowWaiters are statements blocked on at least one row lock, FIFO.
	rowWaiters []*activeQuery
	// demanded counts waiters per key: a new arrival may not barge past
	// an earlier waiter onto a contested key (InnoDB-style FIFO lock
	// queues; without this, wide-footprint waiters starve forever behind
	// a stream of narrow ones).
	demanded map[int]int

	// Metadata lock state. A DDL wanting the MDL waits for inFlight to
	// drain, then holds mdlHolder until it completes; every non-DDL query
	// arriving meanwhile queues in mdlWaiters.
	inFlight   int
	mdlHolder  *activeQuery
	mdlPending []*activeQuery // DDLs waiting for in-flight statements to drain
	mdlWaiters []*activeQuery // ordinary statements frozen behind the MDL
}

// Instance is a simulated cloud database instance.
type Instance struct {
	cfg    Config
	cores  float64
	rng    *rand.Rand
	tables map[string]*table

	throttles map[string]throttleRule // template ID → rate limit

	// scratch is the engine's reusable run state (heap and FIFO backing
	// arrays, the activeQuery freelist, the wake-scan map). Keeping it on
	// the instance means a warm instance runs simulations without
	// per-event allocations. Instances are not safe for concurrent Runs —
	// that was already true (rng, table state); this makes it structural.
	scratch engine
}

// throttleRule is one installed SQL throttle: a rate limit with an optional
// expiry (§VII: "users can also customize the time duration of the
// throttling").
type throttleRule struct {
	maxQPS  float64
	untilMs int64 // 0 = no expiry
}

// NewInstance creates an instance with no tables.
func NewInstance(cfg Config) *Instance {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.IOPSCapacity <= 0 {
		cfg.IOPSCapacity = 10000
	}
	if cfg.LockWaitTimeoutMs == 0 {
		cfg.LockWaitTimeoutMs = 50_000
	}
	return &Instance{
		cfg:       cfg,
		cores:     float64(cfg.Cores),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		tables:    make(map[string]*table),
		throttles: make(map[string]throttleRule),
	}
}

// ReseedSampling resets the instance's metric-sampling RNG (the only
// consumer of instance randomness — the per-second SHOW STATUS sample
// offset). The fleet reseeds it per window so a restarted instance
// replays a window with the exact sampling phase the killed process would
// have used, independent of how many windows ran before the crash.
func (in *Instance) ReseedSampling(seed int64) {
	in.rng = rand.New(rand.NewSource(seed))
}

// CreateTable registers a table. rows is informational (the workload's cost
// model references it); lock keys are allocated lazily per key value.
func (in *Instance) CreateTable(name string, rows int64) {
	in.tables[name] = &table{
		name:     name,
		rows:     rows,
		rowLocks: make(map[int]*activeQuery),
		demanded: make(map[int]int),
	}
}

// Cores returns the current core count.
func (in *Instance) Cores() int { return int(in.cores) }

// SetCores rescales the CPU capacity; the repair module's AutoScale action
// calls this. Takes effect at the next simulation event.
func (in *Instance) SetCores(n int) {
	if n < 1 {
		n = 1
	}
	in.cores = float64(n)
}

// SetPerfSchema switches the monitoring overhead configuration (Table IV).
func (in *Instance) SetPerfSchema(cfg PerfSchemaConfig) { in.cfg.PerfSchema = cfg }

// SetThrottle installs a rate limit for a template: at most maxQPS
// statements are admitted per virtual second; the rest fail fast. The
// repairing module's SQL Throttling action uses this (§VII). maxQPS ≤ 0
// removes the throttle.
func (in *Instance) SetThrottle(templateID string, maxQPS float64) {
	in.SetThrottleUntil(templateID, maxQPS, 0)
}

// SetThrottleUntil installs a rate limit that expires at untilMs virtual
// time (0 = never). Expired throttles are dropped lazily at admission.
func (in *Instance) SetThrottleUntil(templateID string, maxQPS float64, untilMs int64) {
	if maxQPS <= 0 {
		delete(in.throttles, templateID)
		return
	}
	in.throttles[templateID] = throttleRule{maxQPS: maxQPS, untilMs: untilMs}
}

// ClearThrottle removes the throttle for a template.
func (in *Instance) ClearThrottle(templateID string) { delete(in.throttles, templateID) }

// Throttled reports the throttle limit for a template, if any. Expired
// rules report as absent.
func (in *Instance) Throttled(templateID string) (float64, bool) {
	v, ok := in.throttles[templateID]
	if !ok {
		return 0, false
	}
	return v.maxQPS, true
}

func (in *Instance) tableOf(q *Query) (*table, error) {
	tb, ok := in.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("dbsim: query %s references unknown table %q", q.TemplateID, q.Table)
	}
	return tb, nil
}
