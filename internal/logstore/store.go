// Package logstore is the repository for collected query logs — the
// substitute for Alibaba Cloud LogStore in the paper's pipeline (§IV-A).
// It is an append-only, topic-partitioned store of compact per-query
// records with TTL-based expiry ("the data will be invalidated after three
// days, or another user-customized expiration period").
//
// Records are kept per topic (one topic per database instance) in arrival
// order inside a chunked record arena: fixed-capacity chunks linked by a
// small spine, so an append never copies the topic's existing records the
// way a doubling []Record would (at 128 fleet instances ~10% of CPU was
// growslice under Append). Range scans are a two-level binary search —
// chunk spine, then within the chunk — plus a contiguous copy.
//
// Arrival order — ascending ArrivalMs, ties in insertion order — has one
// implementation, Arrange, over any chunk list: a loosely appended topic
// restores its order with it, and a collector arranges its window log with
// it before handing the runs to AppendBatch, which takes ownership of what
// it is given and makes a long in-order stretch a chunk as it is.
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

// ErrUnsortedAppend reports an append that would break a topic's arrival
// ordering beyond the allowed slack.
var ErrUnsortedAppend = errors.New("logstore: record arrival time out of order")

// chunkCap is the fixed record capacity of one arena chunk (32 B/record →
// 128 KiB chunks). Growth allocates one fresh chunk and never touches the
// records already stored.
const chunkCap = 4096

// topicLog is one topic's chunked record arena. When the topic is clean
// (no loose append landed behind its predecessor) every chunk is sorted by
// ArrivalMs and the chunks are ordered: chunks[i]'s last record ≤
// chunks[i+1]'s first. Middle chunks may be shorter than chunkCap after
// expiry or truncation; only the tail chunk accepts plain appends.
type topicLog struct {
	chunks [][]Record
	size   int
	dirty  bool // insertion order is not arrival order: restoreOrder pending
}

// last returns the final record in insertion order; ok is false when the
// topic is empty.
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
// least half a chunk long becomes chunks of its own (cut) — the state
// restoreOrder leaves — so it is never copied; anything else is pushed.
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

// at returns the record at logical index i (insertion order across the
// chunk spine). O(#chunks) — used only by the rare within-slack insertion
// path, which needs logical indexing to replicate the flat slice's
// binary-search semantics exactly.
func (t *topicLog) at(i int) Record {
	for _, c := range t.chunks {
		if i < len(c) {
			return c[i]
		}
		i -= len(c)
	}
	panic("logstore: chunk index out of range")
}

// insertAt places rec at logical index i, shifting everything at or after
// i one slot right. A full chunk overflows its last record into the front
// of the next chunk, cascading toward the tail — each step is a bounded
// memmove inside one fixed-size chunk, never a whole-topic copy.
func (t *topicLog) insertAt(i int, rec Record) {
	ci := 0
	// An index at the boundary of a full chunk is equivalently position 0
	// of the next chunk; step past so the cascade below always has a slot
	// (or falls off the end into a plain push).
	for ci < len(t.chunks) && (i > len(t.chunks[ci]) ||
		(i == len(t.chunks[ci]) && len(t.chunks[ci]) == cap(t.chunks[ci]))) {
		i -= len(t.chunks[ci])
		ci++
	}
	if ci == len(t.chunks) {
		t.push(rec)
		return
	}
	carry := rec
	for ; ci < len(t.chunks); ci++ {
		c := t.chunks[ci]
		if len(c) < cap(c) {
			c = append(c, Record{})
			copy(c[i+1:], c[i:])
			c[i] = carry
			t.chunks[ci] = c
			t.size++
			return
		}
		over := c[len(c)-1]
		copy(c[i+1:], c[i:len(c)-1])
		c[i] = carry
		carry, i = over, 0 // the overflow preceded everything in the next chunk
	}
	t.push(carry)
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
// returns false. The topic must be clean (sorted); runs alias the arena.
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
	// slackMs tolerates mild reordering from asynchronous collection;
	// records are kept sorted by insertion sort within the slack window.
	slackMs int64
}

// New creates a store with the given TTL in milliseconds; ttlMs ≤ 0 selects
// DefaultTTLMs.
func New(ttlMs int64) *Store {
	if ttlMs <= 0 {
		ttlMs = DefaultTTLMs
	}
	return &Store{
		ttlMs:   ttlMs,
		topics:  make(map[string]*topicLog),
		slackMs: 5000,
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
	behind, err := s.insertBehind(t, rec)
	if !behind {
		t.push(rec)
	}
	return err
}

// AppendBatch stores recs under the topic in order, under one lock
// acquisition, and recs is given up: the store may keep a stretch of it as
// a chunk and write into it later. Records may arrive mildly out of order
// (asynchronous collectors); anything older than the slack window relative
// to the topic's newest record is rejected, which ends the batch: it
// returns how many records were accepted before it, and ErrUnsortedAppend.
// A stretch that continues arrival order — the whole batch, for a sorted
// run not behind the topic — costs one comparison pass, and no copy when
// it is long enough to be a chunk of its own (topicLog.take).
func (s *Store) AppendBatch(topic string, recs []Record) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.topic(topic)
	for i := 0; i < len(recs); {
		behind, err := s.insertBehind(t, recs[i])
		if err != nil {
			return i, err
		}
		if behind {
			i++
			continue
		}
		n := 1 + orderedPrefix(recs[i+1:], recs[i].ArrivalMs)
		t.take(recs[i : i+n])
		i += n
	}
	return len(recs), nil
}

// insertBehind handles a record that arrived before the topic's newest
// (behind reports that it did): within the slack window it is inserted at
// the first logical index whose arrival exceeds its own, so equal arrivals
// keep insertion order; beyond it the record is rejected. Callers hold the
// write lock.
func (s *Store) insertBehind(t *topicLog, rec Record) (behind bool, err error) {
	newest, ok := t.last()
	if !ok || rec.ArrivalMs >= newest.ArrivalMs {
		return false, nil
	}
	if newest.ArrivalMs-rec.ArrivalMs > s.slackMs {
		return true, ErrUnsortedAppend
	}
	at := sort.Search(t.size, func(i int) bool { return t.at(i).ArrivalMs > rec.ArrivalMs })
	t.insertAt(at, rec)
	return true, nil
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

// AppendLoose stores one record with no ordering requirement:
// AppendLooseBatch of one.
func (s *Store) AppendLoose(topic string, rec Record) {
	s.AppendLooseBatch(topic, []Record{rec})
}

// AppendLooseBatch stores recs without any ordering requirement: arrival
// order is restored lazily at the next Scan. Query logs are emitted at
// statement *completion*, so a statement that spent minutes in a lock queue
// arrives long after later-arriving statements — far outside any streaming
// slack window. Batch collectors use this path. Whether order needs
// restoring at all is decided here, while the batch is copied: loose
// appends that happen to arrive in order leave the topic clean.
func (s *Store) AppendLooseBatch(topic string, recs []Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.topic(topic)
	if !t.dirty {
		prevMs := int64(math.MinInt64)
		if newest, ok := t.last(); ok {
			prevMs = newest.ArrivalMs
		}
		t.dirty = orderedPrefix(recs, prevMs) < len(recs)
	}
	t.push(recs...)
}

// ensureSorted restores a topic's arrival order after loose appends broke
// it. Callers must hold the write lock.
func (s *Store) ensureSorted(topic string) {
	if t := s.topics[topic]; t != nil && t.dirty {
		t.restoreOrder()
	}
}

// Scan returns a copy of the records in topic with ArrivalMs in
// [fromMs, toMs).
func (s *Store) Scan(topic string, fromMs, toMs int64) []Record {
	// The write lock covers the whole scan: a concurrent AppendLoose
	// between sorting and searching would otherwise leave an unsorted
	// tail under the binary search.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSorted(topic)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSorted(topic)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureSorted(topic)
	t := s.topics[topic]
	if t == nil || t.size == 0 {
		return 0, 0, false
	}
	first := t.chunks[0]
	for _, c := range t.chunks {
		if len(c) > 0 {
			first = c
			break
		}
	}
	newest, _ := t.last()
	return first[0].ArrivalMs, newest.ArrivalMs, true
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
	for topic := range s.topics {
		s.ensureSorted(topic)
		t := s.topics[topic]
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
	s.ensureSorted(topic)
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
