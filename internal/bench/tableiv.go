package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"pinsql/internal/dbsim"
)

// StressMix selects the closed-loop workload composition of Table IV.
type StressMix int

// Table IV workload mixes.
const (
	ReadOnly StressMix = iota
	ReadWrite
	WriteOnly
)

// String names the mix like the paper's column headers.
func (m StressMix) String() string {
	switch m {
	case ReadOnly:
		return "Read Only"
	case ReadWrite:
		return "Read Write"
	case WriteOnly:
		return "Write Only"
	}
	return "unknown"
}

// TableIVCell is one (config, mix) measurement.
type TableIVCell struct {
	QPS     float64
	Decline float64 // percent vs the normal config
}

// TableIV is the Performance Schema overhead study (§VIII-F): QPS and QPS
// decline rate under monitoring configurations, measured with a 32-thread
// closed-loop stress test on a 4-core instance with 20 tables × 10 M rows,
// run until the CPU is the bottleneck.
type TableIV struct {
	Configs []dbsim.PerfSchemaConfig
	Mixes   []StressMix
	Cells   map[dbsim.PerfSchemaConfig]map[StressMix]TableIVCell
}

// The Table IV stress setup: the paper's concurrency, instance size, table
// count and rows per table, and the per-statement service demands.
const (
	stressThreads        = 32
	stressCores          = 4
	stressTables         = 20
	stressRowsPer        = 10_000_000
	stressReadMs         = 0.1
	stressWriteMs        = 0.14
	defaultStressSeconds = 20
)

// StressOptions tunes the Table IV stress driver.
type StressOptions struct {
	DurationSec int // simulated seconds per cell; 0 selects 20
	Seed        int64
}

// RunTableIV measures every config × mix cell.
func RunTableIV(opt StressOptions) (*TableIV, error) {
	if opt.DurationSec <= 0 {
		opt.DurationSec = defaultStressSeconds
	}
	out := &TableIV{
		Configs: []dbsim.PerfSchemaConfig{
			dbsim.PerfSchemaOff, dbsim.PerfSchemaOn, dbsim.PerfSchemaIns,
			dbsim.PerfSchemaCon, dbsim.PerfSchemaConIns,
		},
		Mixes: []StressMix{ReadOnly, ReadWrite, WriteOnly},
		Cells: make(map[dbsim.PerfSchemaConfig]map[StressMix]TableIVCell),
	}
	for _, cfg := range out.Configs {
		out.Cells[cfg] = make(map[StressMix]TableIVCell)
	}

	for _, mix := range out.Mixes {
		var normalQPS float64
		for _, cfg := range out.Configs {
			qps, err := stressQPS(opt, cfg, mix)
			if err != nil {
				return nil, err
			}
			cell := TableIVCell{QPS: qps}
			if cfg == dbsim.PerfSchemaOff {
				normalQPS = qps
			} else if normalQPS > 0 {
				cell.Decline = 100 * (normalQPS - qps) / normalQPS
			}
			out.Cells[cfg][mix] = cell
		}
	}
	return out, nil
}

// stressQPS runs one closed-loop stress cell and returns the steady QPS.
func stressQPS(opt StressOptions, pfs dbsim.PerfSchemaConfig, mix StressMix) (float64, error) {
	cfg := dbsim.DefaultConfig()
	cfg.Cores = stressCores
	cfg.Seed = opt.Seed + int64(pfs)*31 + int64(mix)*7
	inst := dbsim.NewInstance(cfg)
	inst.SetPerfSchema(pfs)
	for i := 0; i < stressTables; i++ {
		inst.CreateTable(fmt.Sprintf("sbtest%d", i+1), stressRowsPer)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	mkQuery := func(now int64) *dbsim.Query {
		table := fmt.Sprintf("sbtest%d", rng.Intn(stressTables)+1)
		isWrite := false
		switch mix {
		case ReadWrite:
			isWrite = rng.Float64() < 0.3
		case WriteOnly:
			isWrite = true
		}
		if isWrite {
			return &dbsim.Query{
				TemplateID: "STRESS-W", SQL: "UPDATE " + table + " SET k = k + 1 WHERE id = ?",
				Table: table, Kind: dbsim.KindUpdate, ArrivalMs: now,
				ServiceMs: stressWriteMs, ExaminedRows: 1, IOOps: 0.5,
				// Point updates over 10M rows: collisions negligible.
				LockKeys: []int{rng.Intn(1_000_000)},
			}
		}
		return &dbsim.Query{
			TemplateID: "STRESS-R", SQL: "SELECT c FROM " + table + " WHERE id = ?",
			Table: table, Kind: dbsim.KindSelect, ArrivalMs: now,
			ServiceMs: stressReadMs, ExaminedRows: 1, IOOps: 0.2,
		}
	}

	initial := make([]*dbsim.Query, stressThreads)
	for i := range initial {
		initial[i] = mkQuery(0)
	}
	endMs := int64(opt.DurationSec) * 1000
	var completed int64
	secs, err := inst.Run(dbsim.RunOptions{
		StartMs: 0,
		EndMs:   endMs,
		Source:  dbsim.NewSliceSource(initial),
		OnComplete: func(fin *dbsim.Query, now int64) *dbsim.Query {
			completed++
			return mkQuery(now)
		},
	})
	if err != nil {
		return 0, err
	}
	// Skip the first two warm-up seconds when computing steady QPS.
	var qps float64
	n := 0
	for i, s := range secs {
		if i < 2 {
			continue
		}
		qps += float64(s.QPS)
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return qps / float64(n), nil
}

// Format renders the table in the paper's layout.
func (t *TableIV) Format() string {
	var b strings.Builder
	b.WriteString("Table IV: QPS and QPS decline rate under Performance Schema configs\n")
	fmt.Fprintf(&b, "%-12s", "Config")
	for _, mix := range t.Mixes {
		fmt.Fprintf(&b, " | %10s %7s", mix, "↓QPS")
	}
	b.WriteByte('\n')
	for _, cfg := range t.Configs {
		fmt.Fprintf(&b, "%-12s", cfg)
		for _, mix := range t.Mixes {
			cell := t.Cells[cfg][mix]
			fmt.Fprintf(&b, " | %10.0f %6.2f%%", cell.QPS, cell.Decline)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
