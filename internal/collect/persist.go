package collect

import (
	"fmt"

	"pinsql/internal/dbsim"
	"pinsql/internal/logstore/segment"
	"pinsql/internal/sqltemplate"
)

// OpenRegistry restores the template registry persisted in a durable
// segment store and keeps it persisted: every entry recovered from the
// store's snapshot + delta log is replayed into a fresh Registry (so
// logstore.Record.TemplateIdx values written before the restart still
// resolve), and newly interned templates are appended to the store's delta
// log as they appear.
func OpenRegistry(st *segment.Store) (*Registry, error) {
	reg := NewRegistry()
	for _, e := range st.RegistryEntries() {
		meta := TemplateMeta{
			Index: e.Index,
			ID:    sqltemplate.ID(e.ID),
			Text:  e.Text,
			Table: e.Table,
			Kind:  dbsim.QueryKind(e.Kind),
		}
		if err := reg.restore(meta); err != nil {
			return nil, fmt.Errorf("collect: replaying persisted registry: %w", err)
		}
	}
	reg.SetOnIntern(func(meta TemplateMeta) {
		// An append error is the store's sticky error: it refuses the
		// next record append, so no record outlives its template.
		st.AppendRegistry(segment.RegistryEntry{
			Index: meta.Index,
			ID:    string(meta.ID),
			Text:  meta.Text,
			Table: meta.Table,
			Kind:  int32(meta.Kind),
		})
	})
	return reg, nil
}
