package dbsim

import (
	"math"
	"slices"
	"testing"
)

// collect runs the instance over the given queries and returns metrics + log.
func collect(t *testing.T, in *Instance, queries []*Query, startMs, endMs int64) ([]SecondMetrics, []LogRecord) {
	t.Helper()
	var log []LogRecord
	secs, err := in.Run(RunOptions{
		StartMs: startMs,
		EndMs:   endMs,
		Source:  NewSliceSource(queries),
		Sink:    func(r LogRecord) { log = append(log, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return secs, log
}

func testInstance(cores int) *Instance {
	cfg := DefaultConfig()
	cfg.Cores = cores
	in := NewInstance(cfg)
	in.CreateTable("sales", 1_000_000)
	in.CreateTable("users", 500_000)
	return in
}

func mkQuery(tpl, table string, kind QueryKind, arrival int64, service float64) *Query {
	return &Query{
		TemplateID:   tpl,
		SQL:          tpl,
		Table:        table,
		Kind:         kind,
		ArrivalMs:    arrival,
		ServiceMs:    service,
		ExaminedRows: 10,
		IOOps:        1,
	}
}

func TestSingleQueryResponseEqualsService(t *testing.T) {
	in := testInstance(4)
	q := mkQuery("T1", "sales", KindSelect, 100, 50)
	secs, log := collect(t, in, []*Query{q}, 0, 1000)
	if len(log) != 1 {
		t.Fatalf("log length = %d, want 1", len(log))
	}
	if !almostEq(log[0].ResponseMs, 50, 1e-6) {
		t.Errorf("response = %v, want 50", log[0].ResponseMs)
	}
	if len(secs) != 1 {
		t.Fatalf("seconds = %d, want 1", len(secs))
	}
	if secs[0].QPS != 1 {
		t.Errorf("QPS = %d, want 1", secs[0].QPS)
	}
	// 50 ms of one core over a second on a 4-core box = 1.25 %.
	if !almostEq(secs[0].CPUUsage, 1.25, 1e-6) {
		t.Errorf("CPU = %v, want 1.25", secs[0].CPUUsage)
	}
}

func TestProcessorSharingSlowdown(t *testing.T) {
	in := testInstance(1)
	// Two simultaneous 100 ms queries on one core: processor sharing
	// finishes both at 200 ms.
	qs := []*Query{
		mkQuery("A", "sales", KindSelect, 0, 100),
		mkQuery("B", "sales", KindSelect, 0, 100),
	}
	_, log := collect(t, in, qs, 0, 1000)
	if len(log) != 2 {
		t.Fatalf("log length = %d", len(log))
	}
	for _, r := range log {
		if !almostEq(r.ResponseMs, 200, 1e-6) {
			t.Errorf("%s response = %v, want 200", r.TemplateID, r.ResponseMs)
		}
	}
}

func TestProcessorSharingManyCores(t *testing.T) {
	in := testInstance(8)
	// Eight cores, two queries: no interference.
	qs := []*Query{
		mkQuery("A", "sales", KindSelect, 0, 100),
		mkQuery("B", "sales", KindSelect, 0, 100),
	}
	_, log := collect(t, in, qs, 0, 1000)
	for _, r := range log {
		if !almostEq(r.ResponseMs, 100, 1e-6) {
			t.Errorf("%s response = %v, want 100", r.TemplateID, r.ResponseMs)
		}
	}
}

func TestUnequalDemandsDepartInOrder(t *testing.T) {
	in := testInstance(1)
	qs := []*Query{
		mkQuery("SHORT", "sales", KindSelect, 0, 10),
		mkQuery("LONG", "sales", KindSelect, 0, 100),
	}
	_, log := collect(t, in, qs, 0, 1000)
	if len(log) != 2 {
		t.Fatalf("log length = %d", len(log))
	}
	if log[0].TemplateID != "SHORT" || log[1].TemplateID != "LONG" {
		t.Fatalf("completion order = %s, %s", log[0].TemplateID, log[1].TemplateID)
	}
	// PS on one core: short finishes at 20 ms (two queries sharing until
	// 10 ms of service each... short needs 10: with rate 1/2, 10 ms of
	// service takes 20 ms wall). Long: 20 + remaining 90 at rate 1 = 110.
	if !almostEq(log[0].ResponseMs, 20, 1e-6) {
		t.Errorf("short response = %v, want 20", log[0].ResponseMs)
	}
	if !almostEq(log[1].ResponseMs, 110, 1e-6) {
		t.Errorf("long response = %v, want 110", log[1].ResponseMs)
	}
}

func TestRowLockConflictSerializes(t *testing.T) {
	in := testInstance(8)
	u1 := mkQuery("U1", "sales", KindUpdate, 0, 100)
	u1.LockKeys = []int{7}
	u2 := mkQuery("U2", "sales", KindUpdate, 10, 20)
	u2.LockKeys = []int{7}
	secs, log := collect(t, in, []*Query{u1, u2}, 0, 1000)
	var r1, r2 LogRecord
	for _, r := range log {
		switch r.TemplateID {
		case "U1":
			r1 = r
		case "U2":
			r2 = r
		}
	}
	if !almostEq(r1.ResponseMs, 100, 1e-6) {
		t.Errorf("U1 response = %v, want 100", r1.ResponseMs)
	}
	// U2 arrives at 10, waits until U1 releases at 100, runs 20 → ends 120.
	if !almostEq(r2.ResponseMs, 110, 1e-6) {
		t.Errorf("U2 response = %v, want 110 (90 wait + 20 run)", r2.ResponseMs)
	}
	if !almostEq(r2.LockWaitMs, 90, 1e-6) {
		t.Errorf("U2 lock wait = %v, want 90", r2.LockWaitMs)
	}
	if secs[0].RowLockWaits != 1 {
		t.Errorf("row lock waits = %d, want 1", secs[0].RowLockWaits)
	}
}

func TestDisjointLockKeysRunConcurrently(t *testing.T) {
	in := testInstance(8)
	u1 := mkQuery("U1", "sales", KindUpdate, 0, 100)
	u1.LockKeys = []int{1}
	u2 := mkQuery("U2", "sales", KindUpdate, 0, 100)
	u2.LockKeys = []int{2}
	_, log := collect(t, in, []*Query{u1, u2}, 0, 1000)
	for _, r := range log {
		if !almostEq(r.ResponseMs, 100, 1e-6) {
			t.Errorf("%s response = %v, want 100 (no conflict)", r.TemplateID, r.ResponseMs)
		}
	}
}

func TestSelectBlockedByExclusiveLock(t *testing.T) {
	// The paper's driving example (§I, Challenge III): UPDATEs holding
	// exclusive row locks force SELECTs on the same rows to wait, so the
	// SELECT templates become H-SQLs while the UPDate is the R-SQL.
	in := testInstance(8)
	upd := mkQuery("UPD", "sales", KindUpdate, 0, 500)
	upd.LockKeys = []int{3}
	sel := mkQuery("SEL", "sales", KindSelect, 100, 5)
	sel.LockKeys = []int{3}
	_, log := collect(t, in, []*Query{upd, sel}, 0, 2000)
	var selRec LogRecord
	for _, r := range log {
		if r.TemplateID == "SEL" {
			selRec = r
		}
	}
	if !almostEq(selRec.ResponseMs, 405, 1e-6) {
		t.Errorf("SELECT response = %v, want 405 (400 wait + 5 run)", selRec.ResponseMs)
	}
}

func TestMDLFreezesTable(t *testing.T) {
	in := testInstance(8)
	// A long-running SELECT is in flight when the DDL arrives; the DDL
	// must wait for it, and a later fast SELECT must queue behind the DDL.
	sel1 := mkQuery("S1", "sales", KindSelect, 0, 300)
	ddl := mkQuery("DDL", "sales", KindDDL, 100, 1000)
	ddl.MDLExclusive = true
	sel2 := mkQuery("S2", "sales", KindSelect, 200, 5)
	other := mkQuery("OTHER", "users", KindSelect, 200, 5)

	secs, log := collect(t, in, []*Query{sel1, ddl, sel2, other}, 0, 3000)
	recs := map[string]LogRecord{}
	for _, r := range log {
		recs[r.TemplateID] = r
	}
	if !almostEq(recs["S1"].ResponseMs, 300, 1e-6) {
		t.Errorf("S1 response = %v, want 300", recs["S1"].ResponseMs)
	}
	// DDL waits until S1 finishes at 300, runs 1000 → completes 1300,
	// response 1200.
	if !almostEq(recs["DDL"].ResponseMs, 1200, 1e-6) {
		t.Errorf("DDL response = %v, want 1200", recs["DDL"].ResponseMs)
	}
	// S2 frozen until 1300, then runs 5 ms → response 1105.
	if !almostEq(recs["S2"].ResponseMs, 1105, 1e-6) {
		t.Errorf("S2 response = %v, want 1105", recs["S2"].ResponseMs)
	}
	// The other table is unaffected.
	if !almostEq(recs["OTHER"].ResponseMs, 5, 1e-6) {
		t.Errorf("OTHER response = %v, want 5", recs["OTHER"].ResponseMs)
	}
	var mdlWaits int
	for _, s := range secs {
		mdlWaits += s.MDLWaits
	}
	if mdlWaits != 1 {
		t.Errorf("MDL waits = %d, want 1 (S2)", mdlWaits)
	}
}

func TestTwoDDLsQueue(t *testing.T) {
	in := testInstance(8)
	d1 := mkQuery("D1", "sales", KindDDL, 0, 100)
	d1.MDLExclusive = true
	d2 := mkQuery("D2", "sales", KindDDL, 10, 100)
	d2.MDLExclusive = true
	_, log := collect(t, in, []*Query{d1, d2}, 0, 2000)
	recs := map[string]LogRecord{}
	for _, r := range log {
		recs[r.TemplateID] = r
	}
	if !almostEq(recs["D1"].ResponseMs, 100, 1e-6) {
		t.Errorf("D1 response = %v", recs["D1"].ResponseMs)
	}
	// D2 waits for D1 (done at 100), runs 100 → ends 200, response 190.
	if !almostEq(recs["D2"].ResponseMs, 190, 1e-6) {
		t.Errorf("D2 response = %v, want 190", recs["D2"].ResponseMs)
	}
}

func TestThrottleRejectsOverLimit(t *testing.T) {
	in := testInstance(8)
	in.SetThrottle("HOT", 2)
	var qs []*Query
	for i := 0; i < 5; i++ {
		qs = append(qs, mkQuery("HOT", "sales", KindSelect, int64(i*10), 5))
	}
	_, log := collect(t, in, qs, 0, 1000)
	var throttled, admitted int
	for _, r := range log {
		if r.Throttled {
			throttled++
		} else {
			admitted++
		}
	}
	if admitted != 2 || throttled != 3 {
		t.Errorf("admitted/throttled = %d/%d, want 2/3", admitted, throttled)
	}
	in.ClearThrottle("HOT")
	qs = qs[:0]
	for i := 0; i < 5; i++ {
		qs = append(qs, mkQuery("HOT", "sales", KindSelect, int64(1000+i*10), 5))
	}
	if _, log = collect(t, in, qs, 1000, 2000); len(log) != 5 || slices.ContainsFunc(log, func(r LogRecord) bool { return r.Throttled }) {
		t.Error("throttle not cleared")
	}
}

func TestThrottleResetsEachSecond(t *testing.T) {
	in := testInstance(8)
	in.SetThrottle("HOT", 1)
	qs := []*Query{
		mkQuery("HOT", "sales", KindSelect, 0, 5),
		mkQuery("HOT", "sales", KindSelect, 10, 5),
		mkQuery("HOT", "sales", KindSelect, 1500, 5),
	}
	_, log := collect(t, in, qs, 0, 2000)
	var admitted int
	for _, r := range log {
		if !r.Throttled {
			admitted++
		}
	}
	if admitted != 2 {
		t.Errorf("admitted = %d, want 2 (one per second)", admitted)
	}
}

func TestPerfSchemaOverheadInflatesResponse(t *testing.T) {
	base := func(cfg PerfSchemaConfig) float64 {
		in := testInstance(4)
		in.SetPerfSchema(cfg)
		_, log := collect(t, in, []*Query{mkQuery("Q", "sales", KindSelect, 0, 100)}, 0, 1000)
		return log[0].ResponseMs
	}
	normal := base(PerfSchemaOff)
	full := base(PerfSchemaConIns)
	if normal != 100 {
		t.Errorf("normal response = %v, want 100", normal)
	}
	if full <= normal*1.2 {
		t.Errorf("pfs+con+ins response = %v, want > %v", full, normal*1.2)
	}
}

func TestActiveSessionSampleSeesConcurrency(t *testing.T) {
	in := testInstance(1)
	// Keep 10 long queries active for the whole first second; the SHOW
	// STATUS sample (whenever it lands) must see all 10.
	var qs []*Query
	for i := 0; i < 10; i++ {
		qs = append(qs, mkQuery("Q", "sales", KindSelect, 0, 5000))
	}
	secs, _ := collect(t, in, qs, 0, 3000)
	if secs[0].ActiveSession != 10 {
		t.Errorf("active session sample = %v, want 10", secs[0].ActiveSession)
	}
	if !almostEq(secs[0].AvgActiveSession, 10, 1e-6) {
		t.Errorf("avg active session = %v, want 10", secs[0].AvgActiveSession)
	}
	if secs[0].SampleOffsetMs < 0 || secs[0].SampleOffsetMs >= 1000 {
		t.Errorf("sample offset = %d out of range", secs[0].SampleOffsetMs)
	}
}

func TestBlockedSessionsCountAsActive(t *testing.T) {
	in := testInstance(8)
	holder := mkQuery("HOLD", "sales", KindUpdate, 0, 5000)
	holder.LockKeys = []int{1}
	var qs []*Query
	qs = append(qs, holder)
	for i := 0; i < 5; i++ {
		w := mkQuery("WAIT", "sales", KindUpdate, 100, 10)
		w.LockKeys = []int{1}
		qs = append(qs, w)
	}
	secs, _ := collect(t, in, qs, 0, 3000)
	// From second 1 onward, 1 running + 5 blocked = 6 active sessions.
	if secs[1].ActiveSession != 6 {
		t.Errorf("active session = %v, want 6 (blocked count)", secs[1].ActiveSession)
	}
}

func TestClosedLoopThroughputScalesWithCores(t *testing.T) {
	run := func(cores int) int {
		in := testInstance(cores)
		completions := 0
		threads := 32
		var initial []*Query
		for i := 0; i < threads; i++ {
			initial = append(initial, mkQuery("CL", "sales", KindSelect, 0, 1))
		}
		secs, err := in.Run(RunOptions{
			StartMs: 0,
			EndMs:   5000,
			Source:  NewSliceSource(initial),
			OnComplete: func(fin *Query, now int64) *Query {
				return mkQuery("CL", "sales", KindSelect, now, 1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range secs {
			completions += s.QPS
		}
		return completions
	}
	q4 := run(4)
	q8 := run(8)
	// Cores are the bottleneck (32 threads, 1 ms service): doubling
	// cores should roughly double throughput.
	ratio := float64(q8) / float64(q4)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("throughput ratio = %v (q4=%d q8=%d), want ≈ 2", ratio, q4, q8)
	}
	// 4 cores × 1000 ms / 1 ms service ≈ 4000 QPS.
	if q4 < 15000 || q4 > 25000 {
		t.Errorf("5-second completions on 4 cores = %d, want ≈ 20000", q4)
	}
}

func TestAutoScaleMidRunIsPossible(t *testing.T) {
	in := testInstance(2)
	in.SetCores(4)
	if in.Cores() != 4 {
		t.Errorf("Cores = %d, want 4", in.Cores())
	}
	in.SetCores(0)
	if in.Cores() != 1 {
		t.Errorf("Cores after clamp = %d, want 1", in.Cores())
	}
}

func TestRunValidation(t *testing.T) {
	in := testInstance(2)
	if _, err := in.Run(RunOptions{StartMs: 0, EndMs: 1000}); err == nil {
		t.Error("nil source must error")
	}
	if _, err := in.Run(RunOptions{StartMs: 5, EndMs: 5, Source: NewSliceSource(nil)}); err == nil {
		t.Error("empty window must error")
	}
}

func TestUnknownTableFailsFast(t *testing.T) {
	in := testInstance(2)
	q := mkQuery("BAD", "nope", KindSelect, 0, 100)
	_, log := collect(t, in, []*Query{q}, 0, 1000)
	if len(log) != 1 {
		t.Fatalf("log length = %d, want 1 (failed-fast record)", len(log))
	}
	if log[0].ResponseMs > 1 {
		t.Errorf("failed query response = %v, want ≈ 0", log[0].ResponseMs)
	}
}

func TestSecondsCountMatchesDuration(t *testing.T) {
	in := testInstance(2)
	secs, _ := collect(t, in, nil, 0, 10_000)
	if len(secs) != 10 {
		t.Errorf("seconds = %d, want 10", len(secs))
	}
	for i, s := range secs {
		if s.Second != int64(i) {
			t.Errorf("seconds[%d].Second = %d", i, s.Second)
		}
		if s.ActiveSession != 0 || s.CPUUsage != 0 {
			t.Errorf("idle second %d has activity: %+v", i, s)
		}
	}
}

func TestPartialFinalSecond(t *testing.T) {
	in := testInstance(2)
	secs, _ := collect(t, in, nil, 0, 2500)
	if len(secs) != 3 {
		t.Errorf("seconds = %d, want 3 (two full + one partial)", len(secs))
	}
}

func TestLogRecordFields(t *testing.T) {
	in := testInstance(2)
	q := mkQuery("T9", "sales", KindUpdate, 123, 10)
	q.SQL = "UPDATE sales SET x = 1 WHERE id = 5"
	q.ExaminedRows = 77
	_, log := collect(t, in, []*Query{q}, 0, 1000)
	r := log[0]
	if r.TemplateID != "T9" || r.Table != "sales" || r.Kind != KindUpdate {
		t.Errorf("record = %+v", r)
	}
	if r.ArrivalMs != 123 || r.ExaminedRows != 77 {
		t.Errorf("record = %+v", r)
	}
	if r.SQL == "" {
		t.Error("SQL missing from record")
	}
}

func TestQueryKindStrings(t *testing.T) {
	kinds := map[QueryKind]string{
		KindSelect: "SELECT", KindInsert: "INSERT", KindUpdate: "UPDATE",
		KindDelete: "DELETE", KindDDL: "DDL", QueryKind(99): "UNKNOWN",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestNoBargingPastWaiters(t *testing.T) {
	// A wide-footprint waiter must not starve behind a stream of later,
	// narrow statements: once it waits on a key, newcomers on that key
	// queue behind it (InnoDB-style FIFO lock queues).
	in := testInstance(8)
	holder := mkQuery("HOLD", "sales", KindUpdate, 0, 100)
	holder.LockKeys = []int{1}
	wide := mkQuery("WIDE", "sales", KindUpdate, 10, 10)
	wide.LockKeys = []int{1, 2}
	qs := []*Query{holder, wide}
	// A stream of narrow updates on key 2 arriving after the wide waiter;
	// with barging they would keep key 2 busy forever.
	for i := 0; i < 20; i++ {
		n := mkQuery("NARROW", "sales", KindUpdate, 20+int64(i*5), 30)
		n.LockKeys = []int{2}
		qs = append(qs, n)
	}
	_, log := collect(t, in, qs, 0, 5000)
	var wideRec LogRecord
	narrowAfterWide := 0
	var wideDone float64
	for _, r := range log {
		if r.TemplateID == "WIDE" {
			wideRec = r
			wideDone = float64(r.ArrivalMs) + r.ResponseMs
		}
	}
	if wideDone == 0 {
		t.Fatal("wide statement never completed (starved)")
	}
	// Wide waits for HOLD (done at 100) and must then run promptly: its
	// key-2 demand blocks the narrow stream from barging.
	if wideRec.ResponseMs > 200 {
		t.Errorf("wide response = %v ms, want ≈ 100 (no starvation)", wideRec.ResponseMs)
	}
	for _, r := range log {
		if r.TemplateID == "NARROW" && float64(r.ArrivalMs)+r.ResponseMs < wideDone {
			narrowAfterWide++
		}
	}
	// At most one narrow statement (the one admitted before WIDE arrived)
	// may finish before WIDE.
	if narrowAfterWide > 1 {
		t.Errorf("%d narrow statements completed before the earlier wide waiter", narrowAfterWide)
	}
}

func TestThrottleExpiry(t *testing.T) {
	in := testInstance(8)
	in.SetThrottleUntil("HOT", 1, 2000) // 1 admitted per second until t=2s
	qs := []*Query{
		mkQuery("HOT", "sales", KindSelect, 100, 5),
		mkQuery("HOT", "sales", KindSelect, 200, 5),  // throttled
		mkQuery("HOT", "sales", KindSelect, 2500, 5), // after expiry: admitted
		mkQuery("HOT", "sales", KindSelect, 2600, 5), // admitted too
	}
	_, log := collect(t, in, qs, 0, 4000)
	var throttled, admitted int
	for _, r := range log {
		if r.Throttled {
			throttled++
		} else {
			admitted++
		}
	}
	if throttled != 1 || admitted != 3 {
		t.Errorf("throttled/admitted = %d/%d, want 1/3", throttled, admitted)
	}
}

func TestLockWaitTimeoutAbortsWaiter(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.LockWaitTimeoutMs = 1000
	in := NewInstance(cfg)
	in.CreateTable("sales", 1000)
	holder := mkQuery("HOLD", "sales", KindUpdate, 0, 5000)
	holder.LockKeys = []int{1}
	waiter := mkQuery("WAIT", "sales", KindUpdate, 100, 10)
	waiter.LockKeys = []int{1}
	var log []LogRecord
	secs, err := in.Run(RunOptions{
		StartMs: 0, EndMs: 8000,
		Source: NewSliceSource([]*Query{holder, waiter}),
		Sink:   func(r LogRecord) { log = append(log, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var timedOut *LogRecord
	for i, r := range log {
		if r.TemplateID == "WAIT" {
			timedOut = &log[i]
		}
	}
	if timedOut == nil || !timedOut.TimedOut {
		t.Fatalf("waiter record = %+v, want timed out", timedOut)
	}
	// Aborted after ~1 s of waiting (arrived at 100, deadline 1100).
	if timedOut.ResponseMs < 900 || timedOut.ResponseMs > 1200 {
		t.Errorf("timed-out response = %v, want ≈ 1000", timedOut.ResponseMs)
	}
	var timeouts int
	for _, s := range secs {
		timeouts += s.LockTimeouts
	}
	if timeouts != 1 {
		t.Errorf("lock timeouts = %d, want 1", timeouts)
	}
	// The holder still completes normally.
	for _, r := range log {
		if r.TemplateID == "HOLD" && (r.TimedOut || r.ResponseMs != 5000) {
			t.Errorf("holder record = %+v", r)
		}
	}
}

func TestLockWaitTimeoutDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.LockWaitTimeoutMs = -1
	in := NewInstance(cfg)
	in.CreateTable("sales", 1000)
	holder := mkQuery("HOLD", "sales", KindUpdate, 0, 3000)
	holder.LockKeys = []int{1}
	waiter := mkQuery("WAIT", "sales", KindUpdate, 100, 10)
	waiter.LockKeys = []int{1}
	var log []LogRecord
	if _, err := in.Run(RunOptions{
		StartMs: 0, EndMs: 8000,
		Source: NewSliceSource([]*Query{holder, waiter}),
		Sink:   func(r LogRecord) { log = append(log, r) },
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range log {
		if r.TimedOut {
			t.Errorf("timeout fired while disabled: %+v", r)
		}
		if r.TemplateID == "WAIT" && !almostEq(r.ResponseMs, 2910, 1e-6) {
			t.Errorf("waiter response = %v, want 2910 (waited for holder)", r.ResponseMs)
		}
	}
}

func TestMDLPendingTimeoutUnfreezesTable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 8
	cfg.LockWaitTimeoutMs = 1000
	in := NewInstance(cfg)
	in.CreateTable("sales", 1000)
	// A long SELECT keeps the table busy; the DDL queues, freezing later
	// SELECTs; the DDL then times out and the frozen SELECT must run.
	long := mkQuery("LONG", "sales", KindSelect, 0, 4000)
	ddl := mkQuery("DDL", "sales", KindDDL, 100, 1000)
	ddl.MDLExclusive = true
	frozen := mkQuery("FROZEN", "sales", KindSelect, 200, 5)
	var log []LogRecord
	if _, err := in.Run(RunOptions{
		StartMs: 0, EndMs: 10_000,
		Source: NewSliceSource([]*Query{long, ddl, frozen}),
		Sink:   func(r LogRecord) { log = append(log, r) },
	}); err != nil {
		t.Fatal(err)
	}
	recs := map[string]LogRecord{}
	for _, r := range log {
		recs[r.TemplateID] = r
	}
	if !recs["DDL"].TimedOut {
		t.Fatalf("DDL record = %+v, want timed out", recs["DDL"])
	}
	// The frozen SELECT runs right after the DDL gives up at t≈1100:
	// response ≈ 900 wait + 5 run.
	fr := recs["FROZEN"]
	if fr.TimedOut || fr.ResponseMs > 1000 {
		t.Errorf("frozen select = %+v, want released after DDL timeout", fr)
	}
}
