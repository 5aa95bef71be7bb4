package ingest

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

type weGoldenSecond struct {
	Second        int64   `json:"second"`
	ActiveSession float64 `json:"active_session"`
	CPUUsage      float64 `json:"cpu_usage"`
	IOPSUsage     float64 `json:"iops_usage"`
	RowLockWaits  int     `json:"row_lock_waits"`
	MDLWaits      int     `json:"mdl_waits"`
	QPS           int     `json:"qps"`
}

type weGoldenRecord struct {
	Template    string  `json:"template"`
	ArrivalMs   int64   `json:"arrival_ms"`
	ResponseMs  float64 `json:"response_ms"`
	LockWaitMs  float64 `json:"lock_wait_ms,omitempty"`
	EmissionSec int64   `json:"emission_sec"`
}

type weGolden struct {
	Records     int64            `json:"records"`
	ParseErrors int64            `json:"parse_errors"`
	Seconds     []weGoldenSecond `json:"seconds"`
	Entries     []weGoldenRecord `json:"entries"`
}

func TestWaitEventsGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "waitevents_fixture.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src := NewWaitEventsSource(f)

	var got weGolden
	var rows []dbsim.SecondMetrics
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, b.Metrics...)
		for _, m := range b.Metrics {
			got.Seconds = append(got.Seconds, weGoldenSecond{
				Second:        m.Second,
				ActiveSession: m.ActiveSession,
				CPUUsage:      m.CPUUsage,
				IOPSUsage:     m.IOPSUsage,
				RowLockWaits:  m.RowLockWaits,
				MDLWaits:      m.MDLWaits,
				QPS:           m.QPS,
			})
		}
		for _, r := range b.Records {
			got.Entries = append(got.Entries, weGoldenRecord{
				Template:    sqltemplate.Normalize(r.SQL),
				ArrivalMs:   r.ArrivalMs,
				ResponseMs:  r.ResponseMs,
				LockWaitMs:  r.LockWaitMs,
				EmissionSec: b.Second,
			})
		}
	}
	st := src.Stats()
	got.Records, got.ParseErrors = st.Records, st.ParseErrors

	// Structural checks: the fixture has two bad lines and a lock storm
	// over seconds 10..20.
	if st.ParseErrors != 2 {
		t.Errorf("ParseErrors = %d, want 2", st.ParseErrors)
	}
	var stormSeen bool
	for _, m := range rows {
		if m.RowLockWaits >= 4 && m.MDLWaits >= 1 {
			stormSeen = true
		}
	}
	if !stormSeen {
		t.Error("no second saw the lock storm (RowLockWaits >= 4 with an MDL wait)")
	}
	if st.Records == 0 {
		t.Error("no records reaped from disappearing sessions")
	}

	compareGolden(t, filepath.Join("testdata", "waitevents_fixture.golden.json"), got)
}
