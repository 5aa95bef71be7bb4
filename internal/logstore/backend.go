package logstore

// Backend is the storage contract behind the log-store layer. Two
// implementations exist: the durable segment store in logstore/segment
// (crash-recoverable, TTL by whole-segment deletion), the fleet's raw log,
// and the in-memory Store in this package, the segment store's test
// reference and the benchmark's staging store — not a fleet backend. Both
// produce byte-identical Scan results for the same ingest sequence.
type Backend interface {
	// AppendBatch stores recs under the topic in order, under one lock and
	// one topic lookup. Each append continues arrival order: a record whose
	// ArrivalMs is below the topic's newest live record is refused, and the
	// call returns how many records were accepted before it, and
	// ErrUnsortedAppend; equal arrivals are accepted and keep ingest order.
	// recs is given up: a backend may keep it and write into it (the
	// in-memory store cuts long stretches into its chunks), so a caller
	// feeding two backends clones it. A durable backend also ends the batch at its
	// first disk error, returning the records that reached its files and
	// that error, and refuses every later append with it: an accepted
	// record is never held only in memory. Append stores one record
	// likewise.
	AppendBatch(topic string, recs []Record) (int, error)
	Append(topic string, rec Record) error

	// Scan returns a copy of the records in topic with ArrivalMs in
	// [fromMs, toMs), sorted by ArrivalMs (ties in ingest order).
	Scan(topic string, fromMs, toMs int64) []Record

	// ScanFunc streams the records of Scan's range in the same order
	// without materializing a slice, calling fn for each; fn returning
	// false stops the scan. fn must not call back into the store.
	ScanFunc(topic string, fromMs, toMs int64, fn func(Record) bool)

	// Bounds returns the minimum and maximum ArrivalMs over a topic's
	// live records; ok is false for an empty or unknown topic.
	Bounds(topic string) (minMs, maxMs int64, ok bool)

	// Len returns the number of live records in a topic.
	Len(topic string) int

	// Topics returns the sorted names of topics with live records.
	Topics() []string

	// Expire drops every record with ArrivalMs < nowMs − TTL and returns
	// the number removed. A record appended later waits for the next
	// Expire, whatever its arrival.
	Expire(nowMs int64) int

	// TruncateFrom drops every record in topic with ArrivalMs >= fromMs
	// and returns the number removed. It is the crash-recovery inverse of
	// Append: a restarting consumer discards the partially written suffix
	// of its topic and replays from a known-committed boundary.
	TruncateFrom(topic string, fromMs int64) int

	// TTL returns the configured time-to-live in milliseconds.
	TTL() int64

	// Close releases backend resources, flushing any buffered state. The
	// in-memory backend's Close is a no-op.
	Close() error
}

// Compile-time check: the in-memory store satisfies the contract.
var _ Backend = (*Store)(nil)
