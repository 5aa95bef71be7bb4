package collect

import (
	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

// refRegistry is the parent's Registry.Intern with its raw-text cache off,
// kept as the oracle for the fingerprint index: every raw-SQL record is
// normalized to a string, the string hashed to an ID, the ID looked up in
// the one map. interned is the sequence of templates it created.
type refRegistry struct {
	byID     map[sqltemplate.ID]int32
	entries  []TemplateMeta
	interned []TemplateMeta
}

// newRefRegistry starts from restored entries, as RestoreRegistry does.
func newRefRegistry(restored []TemplateMeta) *refRegistry {
	r := &refRegistry{byID: make(map[sqltemplate.ID]int32)}
	for _, m := range restored {
		r.entries = append(r.entries, m)
		r.byID[m.ID] = m.Index
	}
	return r
}

func (r *refRegistry) Intern(rec dbsim.LogRecord) TemplateMeta {
	id := sqltemplate.ID(rec.TemplateID)
	var text string
	if id == "" {
		text = sqltemplate.Normalize(rec.SQL)
		id = sqltemplate.HashID(text)
	}
	if idx, ok := r.byID[id]; ok {
		return r.entries[idx]
	}
	if text == "" {
		text = sqltemplate.Normalize(rec.SQL)
	}
	meta := TemplateMeta{
		Index: int32(len(r.entries)),
		ID:    id,
		Text:  text,
		Table: rec.Table,
		Kind:  rec.Kind,
	}
	r.entries = append(r.entries, meta)
	r.byID[id] = meta.Index
	r.interned = append(r.interned, meta)
	return meta
}
