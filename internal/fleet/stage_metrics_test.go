package fleet

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pinsql/internal/ingest"
)

// TestStageDurationMetrics runs a small fleet to completion and checks the
// per-stage wall-clock summaries on /metrics: every stage present, counts
// consistent with the number of processed windows, sums non-negative.
func TestStageDurationMetrics(t *testing.T) {
	specs := DefaultFleet(2, 5, 2, 300)
	f, err := New(specs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var b strings.Builder
	if err := f.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	counts := make(map[string]int64)
	for _, stage := range []string{"collect", "detect", "diagnose", "commit"} {
		sumRe := regexp.MustCompile(`pinsql_stage_duration_seconds_sum\{stage="` + stage + `"\} (\S+)`)
		cntRe := regexp.MustCompile(`pinsql_stage_duration_seconds_count\{stage="` + stage + `"\} (\d+)`)
		sm := sumRe.FindStringSubmatch(text)
		cm := cntRe.FindStringSubmatch(text)
		if sm == nil || cm == nil {
			t.Fatalf("stage %q missing from /metrics:\n%s", stage, text)
		}
		sum, err := strconv.ParseFloat(sm[1], 64)
		if err != nil || sum < 0 {
			t.Fatalf("stage %q sum = %q", stage, sm[1])
		}
		n, err := strconv.ParseInt(cm[1], 10, 64)
		if err != nil || n <= 0 {
			t.Fatalf("stage %q count = %q", stage, cm[1])
		}
		counts[stage] = n
	}

	// Every simulated window goes through collect and commit exactly once;
	// detect and diagnose run once per diagnosed window.
	if counts["collect"] != counts["commit"] {
		t.Errorf("collect count %d != commit count %d", counts["collect"], counts["commit"])
	}
	if counts["detect"] != counts["diagnose"] {
		t.Errorf("detect count %d != diagnose count %d", counts["detect"], counts["diagnose"])
	}
}

// TestSessionEstimatesCountWindowsNotPhenomena is a budget of work, not of
// time: a window's phenomena share one session estimate, so the estimates
// computed over a run equal its anomalous windows, however many phenomena
// they hold — and /metrics says so beside the stage durations.
func TestSessionEstimatesCountWindowsNotPhenomena(t *testing.T) {
	_, f := runReport(t, testSpecs(), Options{Workers: 2, QueueDepth: 16})
	anomalous, phenomena := 0, 0
	for _, reps := range f.Reports() {
		for _, r := range reps {
			if len(r.Anomalies) > 0 {
				anomalous++
				phenomena += len(r.Anomalies)
			}
		}
	}
	if phenomena <= anomalous {
		t.Fatalf("fixture lost its teeth: %d phenomena over %d anomalous windows, no window with two", phenomena, anomalous)
	}
	var b strings.Builder
	if err := f.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^pinsql_session_estimates_total (\d+)$`).FindStringSubmatch(b.String())
	if m == nil {
		t.Fatalf("pinsql_session_estimates_total missing from /metrics:\n%s", b.String())
	}
	if got, _ := strconv.Atoi(m[1]); got != anomalous {
		t.Errorf("%d session estimates for %d anomalous windows (%d phenomena)", got, anomalous, phenomena)
	}
}

// TestRegistryMetricsAccountForEveryRawRecord monitors a slow query log —
// raw SQL only, never throttled — and checks /metrics' three registry
// series against each other and against the records collected: every
// record was resolved by fingerprint or was a fingerprint's first sight,
// and each first sight made one template.
func TestRegistryMetricsAccountForEveryRawRecord(t *testing.T) {
	spec := TraceSpec("orders", 300, func() (ingest.Source, error) {
		return ingest.Open(filepath.Join("..", "..", "examples", "ingest", "orders-slow.log.gz"), "", ingest.OpenOptions{})
	})
	_, f := runReport(t, []InstanceSpec{spec}, Options{Workers: 2})
	var b strings.Builder
	if err := f.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series := func(name string) int {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + name + `\{instance="orders"\} (\d+)$`).FindStringSubmatch(b.String())
		if m == nil {
			t.Fatalf("%s missing from /metrics:\n%s", name, b.String())
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	hits := series("pinsql_registry_raw_cache_hits_total")
	misses := series("pinsql_registry_raw_cache_misses_total")
	templates := series("pinsql_registry_templates")
	records := series("pinsql_fleet_records_total")
	if records == 0 || templates == 0 || hits+misses != records || templates != misses {
		t.Errorf("%d hits + %d first sights over %d records, %d templates", hits, misses, records, templates)
	}
}
