// Package caseio serializes anomaly cases to and from JSON, so diagnosis
// can run offline: `pinsql-gen` exports cases from the simulator (or a real
// collector could export production windows), and `pinsql-diagnose` loads
// them. The format carries everything Definition II.2 requires — the
// performance metrics M, the per-template series Q, the anomaly window
// [as, ae) — plus the optional raw query observations the session estimator
// wants and the history windows the R-SQL verifier wants.
package caseio

import (
	"encoding/json"
	"fmt"
	"io"

	"pinsql/internal/timeseries"
)

// File is the serialized case document.
type File struct {
	// Version guards against future format changes.
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`

	StartMs int64 `json:"start_ms"`
	Seconds int   `json:"seconds"`

	Anomaly Window `json:"anomaly"`
	Rule    string `json:"rule,omitempty"`

	ActiveSession []float64 `json:"active_session"`
	CPUUsage      []float64 `json:"cpu_usage,omitempty"`
	IOPSUsage     []float64 `json:"iops_usage,omitempty"`
	MemUsage      []float64 `json:"mem_usage,omitempty"`
	RowLockWaits  []float64 `json:"row_lock_waits,omitempty"`
	MDLWaits      []float64 `json:"mdl_waits,omitempty"`

	Templates []Template `json:"templates"`
	Queries   []Query    `json:"queries,omitempty"`
	History   []History  `json:"history,omitempty"`

	// Truth carries ground-truth labels when the case came from the
	// synthetic corpus; absent for production exports.
	Truth *Truth `json:"truth,omitempty"`
}

// Window is a half-open [Start, End) second range.
type Window struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Template is one SQL template's aggregated series.
type Template struct {
	ID      string    `json:"id"`
	SQL     string    `json:"sql,omitempty"`
	Table   string    `json:"table,omitempty"`
	Count   []float64 `json:"count"`
	SumRT   []float64 `json:"sum_rt"`
	SumRows []float64 `json:"sum_rows,omitempty"`
}

// Query is one raw query observation.
type Query struct {
	Template   string  `json:"template"`
	ArrivalMs  int64   `json:"arrival_ms"`
	ResponseMs float64 `json:"response_ms"`
}

// History is one Nd-days-ago window of #execution series.
type History struct {
	DaysAgo int                  `json:"days_ago"`
	Counts  map[string][]float64 `json:"counts"`
}

// Truth carries corpus labels.
type Truth struct {
	RSQLs []string `json:"rsqls"`
	HSQLs []string `json:"hsqls,omitempty"`
	Kind  string   `json:"kind,omitempty"`
}

// CurrentVersion of the format.
const CurrentVersion = 1

// Write encodes the document to w (indented JSON).
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// Read decodes a document from r.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("caseio: decoding: %w", err)
	}
	if f.Version == 0 {
		f.Version = CurrentVersion // tolerate hand-written files
	}
	return &f, nil
}

func pad(v []float64, n int) timeseries.Series {
	out := make(timeseries.Series, n)
	copy(out, v)
	return out
}
