package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"

	"pinsql/internal/fleet"
)

// Handler is the aggregating control plane over every shard:
//
//	GET /fleet                     merged fleet + per-instance status (JSON)
//	GET /shards                    per-shard rollups (JSON)
//	GET /instances/{id}/diagnoses  committed window reports, routed to the
//	                               owning shard (JSON)
//	GET /metrics                   Prometheus text exposition (all shards'
//	                               series plus pinsql_shard_* aggregates)
//	GET /debug/pprof/...           stdlib profiling endpoints
//
// It is the one control plane, whatever -shards is: GET /fleet is a fleet's
// status document plus a "shards" field and a per-instance "shard"
// annotation. Read-only — process control stays with signals (SIGTERM
// drains) — and safe to serve while the shards run: every handler snapshots
// per-shard state under that shard's own lock; no cross-shard lock exists.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.Status())
	})
	mux.HandleFunc("GET /shards", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.ShardStatuses())
	})
	mux.HandleFunc("GET /instances/{id}/diagnoses", func(w http.ResponseWriter, r *http.Request) {
		reps, ok := m.Diagnoses(r.PathValue("id"))
		if !ok {
			http.Error(w, "unknown instance", http.StatusNotFound)
			return
		}
		if reps == nil {
			reps = []*fleet.WindowReport{}
		}
		writeJSON(w, reps)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, m.MetricsExposition())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
