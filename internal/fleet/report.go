package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// WindowReport is the committed record of one monitoring window — both the
// JSON journal entry (one line per committed window in -data-dir mode) and
// the unit of the fleet's final report. Every field round-trips exactly
// through encoding/json (float64s marshal to their shortest exact
// representation), which is what makes the post-restart report
// byte-identical to the uninterrupted one.
type WindowReport struct {
	Window   int    `json:"window"`
	FromMs   int64  `json:"from_ms"`
	ToMs     int64  `json:"to_ms"`
	Injected string `json:"injected,omitempty"`
	Records  int64  `json:"records"`
	// Shed windows lost their diagnosis to backpressure: the queue was
	// full when a newer window arrived. Their records are still committed
	// so window numbering and the durable topic stay contiguous.
	Shed        bool            `json:"shed,omitempty"`
	MeanSession float64         `json:"mean_session"`
	MeanCPU     float64         `json:"mean_cpu"`
	Anomalies   []AnomalyReport `json:"anomalies,omitempty"`
}

// AnomalyReport is one detected phenomenon with its diagnosis.
type AnomalyReport struct {
	Rule     string         `json:"rule"`
	StartSec int            `json:"start_sec"` // absolute simulated seconds
	EndSec   int            `json:"end_sec"`
	RSQLs    []RSQLReport   `json:"rsqls,omitempty"`
	Actions  []ActionReport `json:"actions,omitempty"`
}

// RSQLReport is one ranked root-cause candidate.
type RSQLReport struct {
	ID       string  `json:"id"`
	Score    float64 `json:"score"`
	Verified bool    `json:"verified"`
}

// ActionReport is one suggested (and possibly executed) repairing action.
// Executed actions are replayed in order during crash recovery to rebuild
// the world/instance state the simulator continues from.
type ActionReport struct {
	Rule       string  `json:"rule"`
	Action     string  `json:"action"`
	Template   string  `json:"template,omitempty"`
	Value      float64 `json:"value"`
	DurationMs int64   `json:"duration_ms,omitempty"`
	Executed   bool    `json:"executed,omitempty"`
}

// FormatInstanceReport renders one instance's committed windows. The
// format is the determinism contract's observable: byte-identical for
// every worker count, shard count, and across kill/restart (when no
// window was shed). Exported so the shard manager can merge per-shard
// fleets into one deterministic fleet-wide report.
func FormatInstanceReport(b *strings.Builder, id string, reps []*WindowReport) {
	fmt.Fprintf(b, "instance %s: %d windows\n", id, len(reps))
	for _, r := range reps {
		fmt.Fprintf(b, "  window %d [%d, %d)s records=%d session=%s cpu=%s",
			r.Window, r.FromMs/1000, r.ToMs/1000, r.Records,
			formatFloat(r.MeanSession), formatFloat(r.MeanCPU))
		if r.Injected != "" {
			fmt.Fprintf(b, " injected=%s", r.Injected)
		}
		if r.Shed {
			b.WriteString(" SHED")
		}
		b.WriteByte('\n')
		for _, a := range r.Anomalies {
			fmt.Fprintf(b, "    anomaly %s [%d, %d)s\n", a.Rule, a.StartSec, a.EndSec)
			for _, rs := range a.RSQLs {
				fmt.Fprintf(b, "      rsql %s score=%s verified=%v\n", rs.ID, formatFloat(rs.Score), rs.Verified)
			}
			for _, act := range a.Actions {
				state := "suggested"
				if act.Executed {
					state = "executed"
				}
				fmt.Fprintf(b, "      action %s %s template=%s value=%s\n", act.Action, state, act.Template, formatFloat(act.Value))
			}
		}
	}
}

// formatFloat renders a float the way encoding/json does (shortest exact
// form), so the report built from live reports and the one rebuilt from a
// replayed journal agree byte for byte.
func formatFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// sortedIDs returns map keys in order.
func sortedIDs[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
