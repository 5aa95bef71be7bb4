// Package collect is the data-collection and pre-processing half of
// PinSQL's first module (§IV-A): it takes the query-log stream of a
// database instance a batch at a time (or, for live fan-out, through the
// in-process Broker, the Kafka substitute), keeps compact per-query
// records in a TTL'd log store, and aggregates them into per-template
// per-second metric series (the Flink substitute is the Collector),
// alongside the instance performance metrics.
package collect

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

// TemplateMeta is the registry entry for one SQL template.
type TemplateMeta struct {
	Index int32          // dense index used by compact log records
	ID    sqltemplate.ID // digest of the normalized statement
	Text  string         // normalized statement
	Table string
	Kind  dbsim.QueryKind
}

// DefaultRawCacheCap bounds the raw-SQL interning cache: at most this many
// distinct raw statements are remembered verbatim. The bound caps memory on
// adversarial workloads (every statement a unique literal) while covering
// the paper's steady state, where a few hundred templates dominate.
const DefaultRawCacheCap = 4096

// Registry interns SQL templates: structurally identical statements map to
// one TemplateMeta. It is safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	byID    map[sqltemplate.ID]int32
	entries []TemplateMeta
	// rawCache short-circuits normalization: exact raw SQL text → dense
	// index of its template. Entries are never removed from the registry,
	// so a cached index stays valid forever; the cache itself is bounded
	// by rawCap with random replacement. A repeated statement costs one
	// map probe under the read lock instead of a full tokenize pass.
	rawCache map[string]int32
	rawCap   int
	rawHits  atomic.Uint64
	rawMiss  atomic.Uint64
	// onIntern, when set, observes every newly created entry (under the
	// write lock, in dense index order) — the persistence hook.
	onIntern func(TemplateMeta)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:     make(map[sqltemplate.ID]int32),
		rawCache: make(map[string]int32),
		rawCap:   DefaultRawCacheCap,
	}
}

// SetRawCacheCap rebounds the raw-SQL interning cache; n <= 0 disables it
// (every Intern normalizes, the differential-testing configuration). The
// cache is cleared either way — hit/miss counters are not reset.
func (r *Registry) SetRawCacheCap(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rawCap = n
	if n <= 0 {
		r.rawCache = nil
		return
	}
	r.rawCache = make(map[string]int32)
}

// RawCacheStats reports the interning cache's lifetime hit/miss counters
// and current size.
func (r *Registry) RawCacheStats() (hits, misses uint64, size int) {
	r.mu.RLock()
	size = len(r.rawCache)
	r.mu.RUnlock()
	return r.rawHits.Load(), r.rawMiss.Load(), size
}

// cacheRaw remembers sql → idx, evicting one arbitrary entry when full.
// Caller must hold the write lock.
func (r *Registry) cacheRaw(sql string, idx int32) {
	if r.rawCache == nil {
		return
	}
	if _, ok := r.rawCache[sql]; !ok && len(r.rawCache) >= r.rawCap {
		for k := range r.rawCache { // random replacement
			delete(r.rawCache, k)
			break
		}
	}
	r.rawCache[sql] = idx
}

// Intern returns the registry entry for the record's template, creating it
// on first sight. The record's TemplateID is trusted when present (the
// workload generator pre-digests statements); otherwise the SQL text is
// normalized here — unless this exact raw statement was seen before, in
// which case the interning cache answers without tokenizing at all.
func (r *Registry) Intern(rec dbsim.LogRecord) TemplateMeta {
	id := sqltemplate.ID(rec.TemplateID)
	var text string
	normalized := false
	if id == "" {
		r.mu.RLock()
		if idx, ok := r.rawCache[rec.SQL]; ok {
			meta := r.entries[idx]
			r.mu.RUnlock()
			r.rawHits.Add(1)
			return meta
		}
		r.mu.RUnlock()
		r.rawMiss.Add(1)
		tpl := sqltemplate.New(rec.SQL)
		id, text = tpl.ID, tpl.Text
		normalized = true
	}

	r.mu.RLock()
	idx, ok := r.byID[id]
	var meta TemplateMeta
	if ok {
		// Read the entry before unlocking: a concurrent append may grow
		// (and reallocate) the entries slice at any moment.
		meta = r.entries[idx]
	}
	r.mu.RUnlock()
	if ok {
		if normalized {
			// First sight of this raw spelling of a known template:
			// remember it so the next occurrence skips normalization.
			r.mu.Lock()
			r.cacheRaw(rec.SQL, idx)
			r.mu.Unlock()
		}
		return meta
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if idx, ok := r.byID[id]; ok {
		if normalized {
			r.cacheRaw(rec.SQL, idx)
		}
		return r.entries[idx]
	}
	if text == "" {
		text = sqltemplate.Normalize(rec.SQL)
	}
	meta = TemplateMeta{
		Index: int32(len(r.entries)),
		ID:    id,
		Text:  text,
		Table: rec.Table,
		Kind:  rec.Kind,
	}
	r.entries = append(r.entries, meta)
	r.byID[id] = meta.Index
	if normalized {
		r.cacheRaw(rec.SQL, meta.Index)
	}
	if r.onIntern != nil {
		r.onIntern(meta)
	}
	return meta
}

// SetOnIntern installs a callback observing every newly interned template
// in dense index order. The callback runs under the registry's write lock:
// it must be quick and must not call back into the registry.
func (r *Registry) SetOnIntern(fn func(TemplateMeta)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onIntern = fn
}

// Entries returns a copy of every interned template in dense index order.
func (r *Registry) Entries() []TemplateMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]TemplateMeta, len(r.entries))
	copy(out, r.entries)
	return out
}

// restore re-inserts a previously persisted entry; metas must arrive in
// dense index order with no duplicates.
func (r *Registry) restore(meta TemplateMeta) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(meta.Index) != len(r.entries) {
		return fmt.Errorf("collect: registry restore index %d, want %d", meta.Index, len(r.entries))
	}
	if _, ok := r.byID[meta.ID]; ok {
		return fmt.Errorf("collect: registry restore duplicate template %s", meta.ID)
	}
	r.entries = append(r.entries, meta)
	r.byID[meta.ID] = meta.Index
	return nil
}

// Lookup returns the entry for a template ID.
func (r *Registry) Lookup(id sqltemplate.ID) (TemplateMeta, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	idx, ok := r.byID[id]
	if !ok {
		return TemplateMeta{}, false
	}
	return r.entries[idx], true
}

// At returns the entry with the given dense index.
func (r *Registry) At(idx int32) TemplateMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[idx]
}

// Len returns the number of interned templates.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
