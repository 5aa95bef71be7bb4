// Package workload generates the synthetic microservice traffic PinSQL is
// evaluated on — the substitute for Alibaba's production query streams.
//
// The model follows §VI's business-logic argument (Fig. 4): back-end
// services implement business logic as microservice DAGs, so every SQL
// template issued by one service shares that service's request-rate
// modulation. A Service here owns a set of template Specs; its request rate
// is a base RPS shaped by two service-specific sinusoids (minute-scale
// co-movement) plus injected anomaly factors. Arrivals per template follow
// an inhomogeneous Poisson process sampled by thinning, so templates of one
// service correlate strongly in #execution while different services stay
// uncorrelated — exactly the cluster structure the R-SQL module exploits.
//
// Four anomaly injectors mirror the paper's R-SQL taxonomy (§II):
// business-scenario change (QPS spike of one service), poor SQL (a newly
// deployed statement with a huge examined-rows footprint), row-lock storm
// (a burst of hot-key UPDATEs blocking readers of the same rows), and
// metadata lock (a long DDL freezing a hot table).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"pinsql/internal/dbsim"
	"pinsql/internal/sqltemplate"
)

// Spec describes one SQL template issued by a service, with the cost model
// dbsim consumes.
type Spec struct {
	Name    string // human-readable label
	Pattern string // SQL text with '@' placeholders for literals
	Table   string
	Kind    dbsim.QueryKind

	CallsPerRequest float64 // mean executions per service request (DAG fan-out)
	ServiceMs       float64 // mean service demand
	ServiceJitter   float64 // relative jitter, e.g. 0.3 → ±30 %
	ExaminedRows    int64
	RowsJitter      float64
	IOOps           float64

	// Row-lock footprint: LockCount keys drawn uniformly from
	// [LockLo, LockHi) per statement. Zero LockCount means no locks.
	LockLo, LockHi, LockCount int

	// ActiveFromMs/ActiveUntilMs bound the spec's lifetime (injected
	// templates appear mid-trace); zero values mean "always".
	ActiveFromMs, ActiveUntilMs int64

	// RateFactor optionally scales this spec's arrival rate over time,
	// on top of the service rate (injections install these).
	// MaxRateFactor must bound RateFactor's range for Poisson thinning;
	// it defaults to 1 when unset.
	RateFactor    func(tMs int64) float64
	MaxRateFactor float64

	service  *Service
	template sqltemplate.Template
}

// ApplyOptimization models an accepted query optimization (automatic index
// plus rewrite). The passed factors are the optimizer's *maximum* achievable
// reductions; the realized reduction is capped by the statement's own
// optimization potential — a statement already examining few rows has
// little left for an index to cut. This is what separates the Table II
// gains: a pathological scan optimizes by the full factor, while a
// merely-slowed statement improves far less.
func (s *Spec) ApplyOptimization(rowsFactor, timeFactor float64) {
	potential := float64(s.ExaminedRows) / 50
	if potential < 2 {
		potential = 2
	}
	if rowsFactor > potential {
		rowsFactor = potential
	}
	if timeFactor > potential {
		timeFactor = potential
	}
	if rowsFactor > 1 {
		s.ExaminedRows = int64(float64(s.ExaminedRows) / rowsFactor)
		if s.ExaminedRows < 1 {
			s.ExaminedRows = 1
		}
		s.IOOps /= rowsFactor
	}
	if timeFactor > 1 {
		s.ServiceMs /= timeFactor
		if s.ServiceMs < 0.05 {
			s.ServiceMs = 0.05
		}
	}
}

// ID returns the spec's template ID.
func (s *Spec) ID() sqltemplate.ID { return s.template.ID }

// Service is one business (microservice DAG). All its specs share the
// service's request-rate modulation.
type Service struct {
	Name    string
	BaseRPS float64

	// Modulation: rate(t) = BaseRPS · (1 + A1·sin(2πt/P1+φ1) + A2·sin(2πt/P2+φ2)) · spike(t).
	p1, p2     float64 // periods in seconds
	ph1, ph2   float64 // phases
	amp1, amp2 float64

	// SpikeFactor is installed by the business-spike injector.
	SpikeFactor func(tMs int64) float64

	Specs []*Spec
}

// BaseDemand returns the service's expected steady-state CPU demand in
// core-seconds per second (≈ its expected active-session contribution),
// counting only always-active specs. Injection sizing uses it to pick
// spike factors that hurt without driving the instance into runaway
// saturation.
func (s *Service) BaseDemand() float64 {
	var d float64
	for _, sp := range s.Specs {
		if sp.ActiveFromMs != 0 || sp.ActiveUntilMs != 0 {
			continue
		}
		d += s.BaseRPS * sp.CallsPerRequest * sp.ServiceMs / 1000
	}
	return d
}

// Rate returns the service request rate (requests/second) at virtual time t.
func (s *Service) Rate(tMs int64) float64 {
	t := float64(tMs) / 1000
	r := s.BaseRPS * (1 + s.amp1*math.Sin(2*math.Pi*t/s.p1+s.ph1) + s.amp2*math.Sin(2*math.Pi*t/s.p2+s.ph2))
	if s.SpikeFactor != nil {
		r *= s.SpikeFactor(tMs)
	}
	if r < 0 {
		return 0
	}
	return r
}

// maxRate bounds Rate over any time, for Poisson thinning.
func (s *Service) maxRate(maxSpike float64) float64 {
	return s.BaseRPS * (1 + s.amp1 + s.amp2) * maxSpike
}

// TableDef declares a simulated table.
type TableDef struct {
	Name string
	Rows int64
}

// World is a complete workload: tables, services, one-shot statements and
// the installed anomalies.
type World struct {
	rng      *rand.Rand
	Tables   []TableDef
	Services []*Service

	oneShots  []*dbsim.Query // e.g. the DDL of an MDL anomaly
	anomalies []Anomaly
	maxSpike  float64 // upper bound of any installed spike factor
}

// NewWorld creates an empty world with its own deterministic randomness.
func NewWorld(seed int64) *World {
	return &World{rng: rand.New(rand.NewSource(seed)), maxSpike: 1}
}

// Anomalies returns the anomalies installed so far.
func (w *World) Anomalies() []Anomaly { return w.anomalies }

// AddTable declares a table.
func (w *World) AddTable(name string, rows int64) {
	w.Tables = append(w.Tables, TableDef{Name: name, Rows: rows})
}

// AddService creates a service with randomized modulation parameters.
// periodHint decorrelates services: each service should pass a distinct
// value so their sinusoid periods differ.
func (w *World) AddService(name string, baseRPS float64, periodHint int) *Service {
	svc := &Service{
		Name:    name,
		BaseRPS: baseRPS,
		p1:      120 + 37*float64(periodHint%13),
		p2:      310 + 71*float64((periodHint+5)%11),
		ph1:     w.rng.Float64() * 2 * math.Pi,
		ph2:     w.rng.Float64() * 2 * math.Pi,
		amp1:    0.18,
		amp2:    0.12,
	}
	w.Services = append(w.Services, svc)
	return svc
}

// AddSpec attaches a template spec to a service and digests its pattern.
func (w *World) AddSpec(svc *Service, spec Spec) *Spec {
	s := spec
	s.service = svc
	s.template = sqltemplate.New(instantiate(s.Pattern, w.rng))
	if s.CallsPerRequest <= 0 {
		s.CallsPerRequest = 1
	}
	if s.ServiceMs <= 0 {
		s.ServiceMs = 1
	}
	svc.Specs = append(svc.Specs, &s)
	return svc.Specs[len(svc.Specs)-1]
}

// AddOneShot schedules a single statement (used by the MDL injector).
func (w *World) AddOneShot(q *dbsim.Query) { w.oneShots = append(w.oneShots, q) }

// Apply creates the world's tables on a simulated instance.
func (w *World) Apply(in *dbsim.Instance) {
	for _, t := range w.Tables {
		in.CreateTable(t.Name, t.Rows)
	}
}

// AllSpecs returns every spec across services.
func (w *World) AllSpecs() []*Spec {
	var out []*Spec
	for _, svc := range w.Services {
		out = append(out, svc.Specs...)
	}
	return out
}

// SpecByID finds a spec by template ID.
func (w *World) SpecByID(id sqltemplate.ID) *Spec {
	for _, s := range w.AllSpecs() {
		if s.ID() == id {
			return s
		}
	}
	return nil
}

// instantiate replaces each '@' in a pattern with a random integer literal.
func instantiate(pattern string, rng *rand.Rand) string {
	out := make([]byte, 0, len(pattern)+8)
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == '@' {
			out = append(out, fmt.Sprintf("%d", rng.Intn(1_000_000))...)
			continue
		}
		out = append(out, pattern[i])
	}
	return string(out)
}

// buildQuery instantiates one statement of a spec at time t.
func (w *World) buildQuery(s *Spec, tMs int64, rng *rand.Rand) *dbsim.Query {
	jitter := func(base, rel float64) float64 {
		if rel <= 0 {
			return base
		}
		return base * (1 + rel*(2*rng.Float64()-1))
	}
	rows := int64(jitter(float64(s.ExaminedRows), s.RowsJitter))
	if rows < 1 {
		rows = 1
	}
	q := &dbsim.Query{
		TemplateID:   string(s.template.ID),
		SQL:          instantiate(s.Pattern, rng),
		Table:        s.Table,
		Kind:         s.Kind,
		ArrivalMs:    tMs,
		ServiceMs:    jitter(s.ServiceMs, s.ServiceJitter),
		IOOps:        s.IOOps,
		ExaminedRows: rows,
		MDLExclusive: s.Kind == dbsim.KindDDL,
	}
	if s.LockCount > 0 && s.LockHi > s.LockLo {
		keys := make([]int, 0, s.LockCount)
		seen := make(map[int]bool, s.LockCount)
		for len(keys) < s.LockCount {
			k := s.LockLo + rng.Intn(s.LockHi-s.LockLo)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		q.LockKeys = keys
	}
	return q
}

// specRate is the arrival rate of one spec at time t (statements/second).
func specRate(s *Spec, tMs int64) float64 {
	if s.ActiveFromMs != 0 && tMs < s.ActiveFromMs {
		return 0
	}
	if s.ActiveUntilMs != 0 && tMs >= s.ActiveUntilMs {
		return 0
	}
	r := s.service.Rate(tMs) * s.CallsPerRequest
	if s.RateFactor != nil {
		r *= s.RateFactor(tMs)
	}
	return r
}
