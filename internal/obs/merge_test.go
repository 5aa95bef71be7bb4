package obs

import (
	"strings"
	"testing"
)

// TestMergeTextIdentity pins the single-source guarantee: merging one
// well-formed registry exposition reproduces it byte for byte (the
// coordinator's /metrics must not change when every shard is in-process).
func TestMergeTextIdentity(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b help", L("shard", "0")).Add(3)
	r.GaugeFunc("a_gauge", "a help", func() float64 { return 1.5 }, L("shard", "0"))
	r.Summary("s_lat", "s help", L("shard", "0")).Observe(0.25)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := MergeText(b.String()); got != b.String() {
		t.Fatalf("MergeText(single) changed the exposition:\n--- in\n%s--- out\n%s", b.String(), got)
	}
}

// TestMergeTextCoalescesFamilies pins the multi-source shape: same-name
// families from different sources fold into one block (first source's
// HELP/TYPE, series concatenated in source order) and families are
// emitted sorted by name.
func TestMergeTextCoalescesFamilies(t *testing.T) {
	coord := "# HELP pinsql_shard_up Worker liveness.\n" +
		"# TYPE pinsql_shard_up gauge\n" +
		"pinsql_shard_up{shard=\"0\"} 1\n" +
		"pinsql_shard_up{shard=\"1\"} 1\n"
	w0 := "# HELP pinsql_fleet_windows_total Committed windows.\n" +
		"# TYPE pinsql_fleet_windows_total counter\n" +
		"pinsql_fleet_windows_total{instance=\"a\",shard=\"0\"} 2\n" +
		"# TYPE pinsql_stage_duration_seconds summary\n" +
		"pinsql_stage_duration_seconds_sum{shard=\"0\",stage=\"detect\"} 0.5\n" +
		"pinsql_stage_duration_seconds_count{shard=\"0\",stage=\"detect\"} 4\n"
	w1 := "# HELP pinsql_fleet_windows_total Committed windows.\n" +
		"# TYPE pinsql_fleet_windows_total counter\n" +
		"pinsql_fleet_windows_total{instance=\"b\",shard=\"1\"} 2\n" +
		"# TYPE pinsql_stage_duration_seconds summary\n" +
		"pinsql_stage_duration_seconds_sum{shard=\"1\",stage=\"detect\"} 0.75\n" +
		"pinsql_stage_duration_seconds_count{shard=\"1\",stage=\"detect\"} 4\n"

	want := "# HELP pinsql_fleet_windows_total Committed windows.\n" +
		"# TYPE pinsql_fleet_windows_total counter\n" +
		"pinsql_fleet_windows_total{instance=\"a\",shard=\"0\"} 2\n" +
		"pinsql_fleet_windows_total{instance=\"b\",shard=\"1\"} 2\n" +
		"# HELP pinsql_shard_up Worker liveness.\n" +
		"# TYPE pinsql_shard_up gauge\n" +
		"pinsql_shard_up{shard=\"0\"} 1\n" +
		"pinsql_shard_up{shard=\"1\"} 1\n" +
		"# TYPE pinsql_stage_duration_seconds summary\n" +
		"pinsql_stage_duration_seconds_sum{shard=\"0\",stage=\"detect\"} 0.5\n" +
		"pinsql_stage_duration_seconds_count{shard=\"0\",stage=\"detect\"} 4\n" +
		"pinsql_stage_duration_seconds_sum{shard=\"1\",stage=\"detect\"} 0.75\n" +
		"pinsql_stage_duration_seconds_count{shard=\"1\",stage=\"detect\"} 4\n"

	if got := MergeText(coord, w0, w1); got != want {
		t.Fatalf("merged exposition mismatch:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestMergeTextBareSeries pins the fallback for series lines with no
// preceding header: they are grouped under their own sample name, with a
// summary's _sum/_count folded onto the base family.
func TestMergeTextBareSeries(t *testing.T) {
	got := MergeText("z_total 1\n", "a_lat_sum 0.5\na_lat_count 2\n")
	want := "a_lat_sum 0.5\na_lat_count 2\nz_total 1\n"
	if got != want {
		t.Fatalf("bare-series merge = %q, want %q", got, want)
	}
}
