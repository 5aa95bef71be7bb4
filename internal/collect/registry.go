// Package collect is the data-collection and pre-processing half of
// PinSQL's first module (§IV-A): it takes the query-log stream of a
// database instance a batch at a time (or, for live fan-out, through the
// in-process Broker, the Kafka substitute), aggregates it into per-template
// per-second metric series (the Flink substitute is the Collector),
// alongside the instance performance metrics, and holds each window's
// compact per-query records until it hands them, in arrival order, to a
// log store.
package collect

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

// TemplateMeta is the registry entry for one SQL template; its JSON form is
// the row a durable fleet journals for each template it interns.
type TemplateMeta struct {
	Index int32           `json:"index"` // dense index used by compact log records
	ID    sqltemplate.ID  `json:"id"`    // digest of the normalized statement
	Text  string          `json:"text"`  // normalized statement
	Table string          `json:"table"`
	Kind  dbsim.QueryKind `json:"kind"`
}

// Registry interns SQL templates: structurally identical statements map to
// one TemplateMeta. It is safe for concurrent use. It holds no raw statement
// text: its size depends on the templates seen, never on their literals.
type Registry struct {
	mu      sync.RWMutex
	byID    map[sqltemplate.ID]int32
	entries []TemplateMeta
	// byFP resolves a raw-SQL record without building its template text:
	// sqltemplate.Fingerprint of the statement → dense index. It is filled
	// on the first sight of each fingerprint from byID, so a fingerprint
	// and the ID that is its hex always name the same entry.
	byFP   map[uint32]int32
	fpHits atomic.Uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID: make(map[sqltemplate.ID]int32),
		byFP: make(map[uint32]int32),
	}
}

// RawCacheStats reports the fingerprint index's lifetime counters and size:
// raw-SQL records resolved by fingerprint alone (hits), fingerprints seen
// for the first time (misses, each of which built the template text once),
// and the number of fingerprints indexed.
func (r *Registry) RawCacheStats() (hits, misses uint64, size int) {
	r.mu.RLock()
	size = len(r.byFP)
	r.mu.RUnlock()
	return r.fpHits.Load(), uint64(size), size
}

// Intern returns the registry entry for the record's template, creating it
// on first sight. The record's TemplateID is trusted when present (the
// workload generator pre-digests statements); otherwise the template is
// named by the fingerprint of the SQL text, and the text itself is
// normalized only the first time a fingerprint is seen.
func (r *Registry) Intern(rec dbsim.LogRecord) TemplateMeta { return r.intern(&rec) }

func (r *Registry) intern(rec *dbsim.LogRecord) TemplateMeta {
	id := sqltemplate.ID(rec.TemplateID)
	raw := id == ""
	var fp uint32
	if raw {
		fp = sqltemplate.Fingerprint(rec.SQL)
	}
	var idx int32
	var ok bool
	r.mu.RLock()
	if raw {
		idx, ok = r.byFP[fp]
	} else {
		idx, ok = r.byID[id]
	}
	if ok {
		// Read the entry before unlocking: a concurrent append may grow
		// (and reallocate) the entries slice at any moment.
		meta := r.entries[idx]
		r.mu.RUnlock()
		if raw {
			r.fpHits.Add(1)
		}
		return meta
	}
	r.mu.RUnlock()

	var text string
	if raw {
		tpl := sqltemplate.New(rec.SQL)
		id, text = tpl.ID, tpl.Text
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if raw {
		if idx, ok := r.byFP[fp]; ok { // a concurrent first sight won
			r.fpHits.Add(1)
			return r.entries[idx]
		}
	}
	idx, ok = r.byID[id]
	if !ok {
		if text == "" {
			text = sqltemplate.Normalize(rec.SQL)
		}
		idx = int32(len(r.entries))
		r.entries = append(r.entries, TemplateMeta{
			Index: idx,
			ID:    id,
			Text:  text,
			Table: rec.Table,
			Kind:  rec.Kind,
		})
		r.byID[id] = idx
	}
	if raw {
		r.byFP[fp] = idx
	}
	return r.entries[idx]
}

// Since returns a copy of the templates interned at dense index n and
// after, in index order; nil when there are none.
func (r *Registry) Since(n int) []TemplateMeta {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if n >= len(r.entries) {
		return nil
	}
	return append([]TemplateMeta(nil), r.entries[n:]...)
}

// RestoreRegistry rebuilds a registry from templates persisted in dense
// index order from 0 — Since(0) of the registry that interned them — so
// the TemplateIdx of records written before a restart still resolves.
func RestoreRegistry(entries []TemplateMeta) (*Registry, error) {
	r := NewRegistry()
	for _, meta := range entries {
		if int(meta.Index) != len(r.entries) {
			return nil, fmt.Errorf("collect: registry restore index %d, want %d", meta.Index, len(r.entries))
		}
		if _, ok := r.byID[meta.ID]; ok {
			return nil, fmt.Errorf("collect: registry restore duplicate template %s", meta.ID)
		}
		r.entries = append(r.entries, meta)
		r.byID[meta.ID] = meta.Index
	}
	return r, nil
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
