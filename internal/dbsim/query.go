// Package dbsim is a discrete-event simulator of a cloud database instance,
// the substrate PinSQL diagnoses. It models the pieces of a MySQL-like
// engine that the paper's causal chains flow through:
//
//   - a processor-sharing CPU with a configurable core count (AutoScale),
//   - InnoDB-style exclusive row locks held for a statement's duration,
//   - metadata locks (MDL) taken by DDL, which freeze a whole table and
//     pile up every later query ("Waiting for table metadata lock", §II),
//   - per-second performance metrics including the active-session metric
//     sampled by SHOW STATUS at an unknown sub-second offset (§IV-C, Fig. 3),
//   - a query log stream (statement, response time, examined rows,
//     arrival timestamp) exactly as §IV-A collects, and
//   - a Performance Schema overhead model used by the Table IV study.
//
// Everything is driven by virtual time in milliseconds; simulating an hour
// of heavy traffic takes well under a second of real time.
package dbsim

// QueryKind classifies a simulated statement.
type QueryKind int

// Query kinds.
const (
	KindSelect QueryKind = iota
	KindInsert
	KindUpdate
	KindDelete
	KindDDL
)

// String returns the SQL verb for the kind.
func (k QueryKind) String() string {
	switch k {
	case KindSelect:
		return "SELECT"
	case KindInsert:
		return "INSERT"
	case KindUpdate:
		return "UPDATE"
	case KindDelete:
		return "DELETE"
	case KindDDL:
		return "DDL"
	}
	return "UNKNOWN"
}

// Query is one statement submitted to the instance. The workload generator
// fills in the cost model fields; the engine consumes them.
type Query struct {
	TemplateID   string    // SQL template digest (Definition II.3)
	SQL          string    // raw statement with literals
	Table        string    // table the statement touches
	Kind         QueryKind //
	ArrivalMs    int64     // virtual arrival time
	ServiceMs    float64   // CPU/IO service demand in milliseconds
	IOOps        float64   // I/O operations consumed (feeds iops_usage)
	ExaminedRows int64     // rows examined (feeds #examined_rows)
	LockKeys     []int     // exclusive row-lock keys (writes); nil for none
	MDLExclusive bool      // DDL: takes the table's metadata lock
}

// LogRecord is one entry of the collected query log (§IV-A): basic
// information, metric data and the arrival timestamp.
type LogRecord struct {
	TemplateID   string
	SQL          string
	Table        string
	Kind         QueryKind
	ArrivalMs    int64   // t(q), milliseconds
	ResponseMs   float64 // tres(q), includes lock-wait time
	ExaminedRows int64
	Throttled    bool // rejected by an active SQL throttle rule
	TimedOut     bool // aborted by the lock wait timeout (still consumed a session)
	LockWaitMs   float64
}

// LogSink receives completed-query records as the simulation produces them.
// Implementations must not retain the record past the call if they mutate it.
type LogSink func(LogRecord)

// SecondMetrics is the per-second performance-metric sample the monitoring
// pipeline collects (Definition II.4).
type SecondMetrics struct {
	Second int64 // virtual second index since simulation start

	// ActiveSession is the SHOW STATUS sample: the number of sessions
	// active at one unknown instant inside the second (Fig. 3). This is
	// the ground-truth metric the detector watches.
	ActiveSession float64
	// SampleOffsetMs is the hidden instant (within the second) at which
	// the SHOW STATUS observation happened. PinSQL never sees this; tests
	// and the Table III harness use it to validate bucket selection.
	SampleOffsetMs int
	// AvgActiveSession is the time-averaged session count over the second.
	AvgActiveSession float64

	CPUUsage     float64 // percent of total core capacity used
	IOPSUsage    float64 // percent of I/O capacity used
	MemUsage     float64 // percent, synthetic: base + session pressure
	QPS          int     // queries completed this second
	RowLockWaits int     // statements that waited on a row lock this second
	MDLWaits     int     // statements that waited on a metadata lock this second
	LockTimeouts int     // statements aborted by the lock wait timeout this second
}
