// Package logstore defines the repository for collected query logs — the
// substitute for Alibaba Cloud LogStore in the paper's pipeline (§IV-A):
// an append-only, topic-partitioned store of compact per-query records
// with TTL-based expiry ("the data will be invalidated after three days, or
// another user-customized expiration period"). Backend is its contract;
// the fleet's one implementation is the durable segment store in
// logstore/segment.
//
// Store is the in-memory implementation: the segment store's test
// reference and the benchmark's staging store, not a fleet backend. It
// keeps records per topic in arrival order inside a chunked record arena:
// fixed-capacity chunks linked by a small spine, so an append never copies
// the topic's existing records the way a doubling []Record would. Range
// scans are a two-level binary search — chunk spine, then within the
// chunk — plus a contiguous copy.
//
// Every backend has one write order: every append continues arrival order
// — ascending ArrivalMs, ties in insertion order — and a record behind the
// topic's newest is refused. A collector arranges its window log into that
// order with ArrangeCounted before handing the array to AppendBatch.
package logstore

import (
	"errors"
	"math"
	"sort"
	"sync"
)

// Record is one collected query observation, compacted for bulk storage:
// the template is referenced by registry index instead of repeating the
// SQL text billions of times.
type Record struct {
	TemplateIdx  int32   // index into the collector's template registry
	ArrivalMs    int64   // t(q)
	ResponseMs   float64 // tres(q)
	ExaminedRows int64
}

// DefaultTTLMs is the paper's three-day default expiration period.
const DefaultTTLMs = 3 * 24 * 3600 * 1000

// ErrUnsortedAppend reports an append of a record that arrived before the
// topic's newest live record.
var ErrUnsortedAppend = errors.New("logstore: record arrival time out of order")

// chunkCap is the fixed record capacity of one arena chunk (32 B/record →
// 128 KiB chunks). Growth allocates one fresh chunk and never touches the
// records already stored.
const chunkCap = 4096

// topicLog is one topic's chunked record arena. Every chunk is sorted by
// ArrivalMs and the chunks are ordered: chunks[i]'s last record ≤
// chunks[i+1]'s first. Middle chunks may be shorter than chunkCap after
// expiry or truncation; only the tail chunk accepts plain appends.
type topicLog struct {
	chunks [][]Record
	size   int
}

// last returns the topic's newest record; ok is false when the topic is
// empty.
func (t *topicLog) last() (Record, bool) {
	if len(t.chunks) == 0 {
		return Record{}, false
	}
	tail := t.chunks[len(t.chunks)-1]
	return tail[len(tail)-1], true
}

// push appends recs to the tail chunk, opening a new chunk whenever the
// tail is at capacity. Empty chunks never linger: push is the only way a
// chunk is born and it immediately receives a record.
func (t *topicLog) push(recs ...Record) {
	for len(recs) > 0 {
		if n := len(t.chunks); n == 0 || len(t.chunks[n-1]) == cap(t.chunks[n-1]) {
			t.chunks = append(t.chunks, make([]Record, 0, chunkCap))
		}
		n := len(t.chunks) - 1
		k := min(len(recs), cap(t.chunks[n])-len(t.chunks[n]))
		t.chunks[n] = append(t.chunks[n], recs[:k]...)
		t.size += k
		recs = recs[k:]
	}
}

// take stores a stretch that continues arrival order and is the topic's to
// keep. A stretch that does not fit the tail chunk's free space and is at
// least half a chunk long becomes chunks of its own (cut), so it is never
// copied; anything else is pushed.
func (t *topicLog) take(recs []Record) {
	if n := len(t.chunks); len(recs) < chunkCap/2 || n > 0 && len(recs) <= cap(t.chunks[n-1])-len(t.chunks[n-1]) {
		t.push(recs...)
		return
	}
	t.size += len(recs)
	t.chunks = cut(t.chunks, recs)
}

// cut appends recs to a chunk list as chunks of at most chunkCap records,
// each full at its own capacity, so the next append opens a fresh chunk.
// Where the last would be shorter than half a chunk, the last two share
// their records evenly.
func cut(chunks [][]Record, recs []Record) [][]Record {
	for len(recs) > 0 {
		n := min(chunkCap, len(recs))
		if rest := len(recs) - n; rest > 0 && rest < chunkCap/2 {
			n = len(recs) / 2
		}
		chunks = append(chunks, recs[:n:n])
		recs = recs[n:]
	}
	return chunks
}

// find returns the position of the first record for which pred holds,
// assuming pred is monotone over the (sorted) topic: false…false
// true…true. It returns the logical index plus the (chunk, offset)
// coordinates; logical == size when no record matches.
func (t *topicLog) find(pred func(Record) bool) (logical, chunk, off int) {
	base := 0
	for ci, c := range t.chunks {
		if len(c) == 0 {
			continue
		}
		if !pred(c[len(c)-1]) {
			base += len(c)
			continue
		}
		i := sort.Search(len(c), func(i int) bool { return pred(c[i]) })
		return base + i, ci, i
	}
	return t.size, len(t.chunks), 0
}

// scanRuns calls fn with the records whose ArrivalMs lies in [fromMs, toMs),
// in order, one contiguous stretch of an arena chunk per call, until fn
// returns false. Runs alias the arena.
func (t *topicLog) scanRuns(fromMs, toMs int64, fn func([]Record) bool) {
	_, ci, off := t.find(func(r Record) bool { return r.ArrivalMs >= fromMs })
	for ; ci < len(t.chunks); ci++ {
		c := t.chunks[ci][off:]
		off = 0
		end := sort.Search(len(c), func(i int) bool { return c[i].ArrivalMs >= toMs })
		if end > 0 && !fn(c[:end]) || end < len(c) {
			return
		}
	}
}

// Store is a thread-safe, TTL-expiring log store.
type Store struct {
	mu     sync.RWMutex
	ttlMs  int64
	topics map[string]*topicLog
}

// New creates a store with the given TTL in milliseconds; ttlMs ≤ 0 selects
// DefaultTTLMs.
func New(ttlMs int64) *Store {
	if ttlMs <= 0 {
		ttlMs = DefaultTTLMs
	}
	return &Store{
		ttlMs:  ttlMs,
		topics: make(map[string]*topicLog),
	}
}

// TTL returns the configured time-to-live in milliseconds.
func (s *Store) TTL() int64 { return s.ttlMs }

// topic returns the arena for a topic, creating it on first use. Callers
// hold the write lock.
func (s *Store) topic(name string) *topicLog {
	t := s.topics[name]
	if t == nil {
		t = &topicLog{}
		s.topics[name] = t
	}
	return t
}

// Append stores one record under the topic, by AppendBatch's rule; it
// allocates nothing beyond the chunk a full tail makes it open.
func (s *Store) Append(topic string, rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.topic(topic)
	if newest, ok := t.last(); ok && rec.ArrivalMs < newest.ArrivalMs {
		return ErrUnsortedAppend
	}
	t.push(rec)
	return nil
}

// AppendBatch stores recs under the topic in order, under one lock
// acquisition, and recs is given up: the store may keep a stretch of it as
// a chunk and write into it later. Every record must continue arrival order
// — at or after the topic's newest, ties keeping ingest order — and the
// first that does not ends the batch: it returns how many records were
// accepted before it, and ErrUnsortedAppend. The accepted stretch costs one
// comparison pass, and no copy when it is long enough to be a chunk of its
// own (topicLog.take).
func (s *Store) AppendBatch(topic string, recs []Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.topic(topic)
	prevMs := int64(math.MinInt64)
	if newest, ok := t.last(); ok {
		prevMs = newest.ArrivalMs
	}
	n := orderedPrefix(recs, prevMs)
	t.take(recs[:n])
	if n < len(recs) {
		return n, ErrUnsortedAppend
	}
	return n, nil
}

// orderedPrefix returns the length of the longest prefix of recs that
// continues arrival order after a record that arrived at prevMs.
func orderedPrefix(recs []Record, prevMs int64) int {
	for i := range recs {
		if recs[i].ArrivalMs < prevMs {
			return i
		}
		prevMs = recs[i].ArrivalMs
	}
	return len(recs)
}

// Scan returns a copy of the records in topic with ArrivalMs in
// [fromMs, toMs).
func (s *Store) Scan(topic string, fromMs, toMs int64) []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.topics[topic]
	if t == nil {
		return []Record{}
	}
	lo, _, _ := t.find(func(r Record) bool { return r.ArrivalMs >= fromMs })
	hi, _, _ := t.find(func(r Record) bool { return r.ArrivalMs >= toMs })
	out := make([]Record, 0, hi-lo)
	t.scanRuns(fromMs, toMs, func(run []Record) bool {
		out = append(out, run...)
		return true
	})
	return out
}

// ScanFunc streams the records of Scan's range in the same order without
// materializing a copy, calling fn for each record until it returns false.
// The callback runs under the store lock: it must be quick and must not
// call back into the store.
func (s *Store) ScanFunc(topic string, fromMs, toMs int64, fn func(Record) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.topics[topic]; t != nil {
		t.scanRuns(fromMs, toMs, func(run []Record) bool {
			for _, r := range run {
				if !fn(r) {
					return false
				}
			}
			return true
		})
	}
}

// Bounds returns the minimum and maximum ArrivalMs in a topic; ok is false
// when the topic is empty or unknown.
func (s *Store) Bounds(topic string) (minMs, maxMs int64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t := s.topics[topic]
	if t == nil || t.size == 0 {
		return 0, 0, false
	}
	newest, _ := t.last()
	return t.chunks[0][0].ArrivalMs, newest.ArrivalMs, true
}

// Len returns the number of live records in a topic.
func (s *Store) Len(topic string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if t := s.topics[topic]; t != nil {
		return t.size
	}
	return 0
}

// Topics returns the topic names with at least one live record.
func (s *Store) Topics() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.topics))
	for name, t := range s.topics {
		if t.size > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// Expire drops every record with ArrivalMs < nowMs − TTL across all topics
// and returns the number removed. PinSQL calls this periodically to keep
// the store's size within its limit (§IV-A). Whole expired chunks are
// released in O(1); at most one chunk is trimmed in place.
func (s *Store) Expire(nowMs int64) int {
	cutoff := nowMs - s.ttlMs
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for topic, t := range s.topics {
		lo, ci, off := t.find(func(r Record) bool { return r.ArrivalMs >= cutoff })
		if lo == 0 {
			continue
		}
		removed += lo
		if lo == t.size {
			delete(s.topics, topic)
			continue
		}
		// Drop the fully expired chunks, trim the partially expired one.
		t.chunks = t.chunks[ci:]
		if off > 0 {
			t.chunks[0] = t.chunks[0][off:]
		}
		t.size -= lo
	}
	return removed
}

// TruncateFrom drops every record in topic with ArrivalMs >= fromMs and
// returns the number removed. Restarting consumers use it to discard a
// partially committed suffix before replaying a window.
func (s *Store) TruncateFrom(topic string, fromMs int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.topics[topic]
	if t == nil {
		return 0
	}
	lo, ci, off := t.find(func(r Record) bool { return r.ArrivalMs >= fromMs })
	removed := t.size - lo
	if removed == 0 {
		return 0
	}
	if lo == 0 {
		delete(s.topics, topic)
		return removed
	}
	if off > 0 {
		t.chunks = t.chunks[:ci+1]
		t.chunks[ci] = t.chunks[ci][:off]
	} else {
		t.chunks = t.chunks[:ci]
	}
	t.size = lo
	return removed
}

// Close satisfies Backend; the in-memory store holds no external
// resources.
func (s *Store) Close() error { return nil }
