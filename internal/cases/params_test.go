package cases

import (
	"errors"
	"math"
	"testing"

	"pinsql/internal/workload"
)

// fastOpt is a minimal-cost generation configuration for validation tests.
func fastOpt() Options {
	opt := DefaultOptions()
	opt.TraceSec = 300
	opt.AnomalyStartSec = 150
	opt.AnomalyMinDurSec = 60
	opt.AnomalyMaxDurSec = 90
	opt.FillerServices = 0
	opt.HistoryDays = []int{1}
	return opt
}

// validParams is a vector that passes Validate for fastOpt's horizon.
func validParams() CaseParams {
	return CaseParams{
		Kind:            workload.KindPoorSQL,
		Service:         1,
		Intensity:       3,
		StartSec:        150,
		DurSec:          60,
		ConfuserService: -1,
	}
}

// TestCaseParamsValidate drives the boundary values the fuzzer hits
// constantly through Validate; each invalid vector must come back as a
// typed *ValidationError (wrapping ErrInvalid) naming the right field.
func TestCaseParamsValidate(t *testing.T) {
	const trace = 300
	tests := []struct {
		name   string
		mutate func(*CaseParams)
		field  string // "" = expect valid
	}{
		{"valid", func(p *CaseParams) {}, ""},
		{"valid at horizon edge", func(p *CaseParams) { p.StartSec = 299; p.DurSec = 1 }, ""},
		{"valid mdl ignores intensity", func(p *CaseParams) { p.Kind = workload.KindMDL; p.Intensity = 0 }, ""},
		{"valid with confuser", func(p *CaseParams) {
			p.ConfuserService = 3
			p.ConfuserFactor = 2.5
			p.ConfuserDurSec = 60
		}, ""},

		{"service negative", func(p *CaseParams) { p.Service = -1 }, "service"},
		{"service beyond base world", func(p *CaseParams) { p.Service = 6 }, "service"},
		{"zero intensity", func(p *CaseParams) { p.Intensity = 0 }, "intensity"},
		{"negative intensity", func(p *CaseParams) { p.Intensity = -4 }, "intensity"},
		{"NaN intensity", func(p *CaseParams) { p.Intensity = math.NaN() }, "intensity"},
		{"Inf intensity", func(p *CaseParams) { p.Intensity = math.Inf(1) }, "intensity"},
		{"start at zero", func(p *CaseParams) { p.StartSec = 0 }, "start_sec"},
		{"start negative", func(p *CaseParams) { p.StartSec = -10 }, "start_sec"},
		{"start at horizon", func(p *CaseParams) { p.StartSec = trace }, "start_sec"},
		{"start past horizon", func(p *CaseParams) { p.StartSec = trace + 50 }, "start_sec"},
		{"zero duration", func(p *CaseParams) { p.DurSec = 0 }, "dur_sec"},
		{"negative duration", func(p *CaseParams) { p.DurSec = -30 }, "dur_sec"},
		{"window leaves horizon", func(p *CaseParams) { p.StartSec = 280; p.DurSec = 21 }, "dur_sec"},
		{"negative fillers", func(p *CaseParams) { p.FillerServices = -1 }, "filler_services"},
		{"fillers without specs", func(p *CaseParams) { p.FillerServices = 2; p.FillerSpecs = 0 }, "filler_specs"},
		{"confuser beyond base world", func(p *CaseParams) {
			p.ConfuserService = 6
			p.ConfuserFactor = 2
			p.ConfuserDurSec = 60
		}, "confuser_service"},
		{"confuser equals target", func(p *CaseParams) {
			p.ConfuserService = p.Service
			p.ConfuserFactor = 2
			p.ConfuserDurSec = 60
		}, "confuser_service"},
		{"confuser factor of one", func(p *CaseParams) {
			p.ConfuserService = 3
			p.ConfuserFactor = 1
			p.ConfuserDurSec = 60
		}, "confuser_factor"},
		{"confuser without duration", func(p *CaseParams) {
			p.ConfuserService = 3
			p.ConfuserFactor = 2
		}, "confuser_dur_sec"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := validParams()
			tc.mutate(&p)
			err := p.Validate(trace)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("expected valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected a validation error on %s", tc.field)
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("expected *ValidationError, got %T: %v", err, err)
			}
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("validation error does not wrap ErrInvalid: %v", err)
			}
			if verr.Field != tc.field {
				t.Fatalf("field = %q, want %q (err: %v)", verr.Field, tc.field, err)
			}
		})
	}
}

// TestCaseParamsValidateHorizon covers the degenerate horizon itself.
func TestCaseParamsValidateHorizon(t *testing.T) {
	err := validParams().Validate(0)
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Field != "trace_sec" {
		t.Fatalf("expected trace_sec validation error, got %v", err)
	}
}

// TestGenerateFromParamsRejectsInvalid confirms the generator refuses an
// invalid vector before paying for a simulation.
func TestGenerateFromParamsRejectsInvalid(t *testing.T) {
	p := validParams()
	p.StartSec = 10_000 // far outside fastOpt's 300 s horizon
	_, err := GenerateFromParams(fastOpt(), 0, p)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("expected ErrInvalid, got %v", err)
	}
}

// TestGenerateOneWithMutationValidation: mutations that degrade the world
// out of range must surface as typed validation errors instead of silently
// generating a degenerate case.
func TestGenerateOneWithMutationValidation(t *testing.T) {
	opt := fastOpt()
	tests := []struct {
		name   string
		mutate func(*workload.World)
		field  string
	}{
		{"zero-QPS service", func(w *workload.World) {
			w.Services[1].BaseRPS = 0
		}, "service"},
		{"negative-QPS service", func(w *workload.World) {
			w.Services[0].BaseRPS = -3
		}, "service"},
		{"NaN service rate", func(w *workload.World) {
			w.Services[2].BaseRPS = math.NaN()
		}, "service"},
		{"negative calls per request", func(w *workload.World) {
			w.Services[0].Specs[0].CallsPerRequest = -1
		}, "spec"},
		{"zero service demand", func(w *workload.World) {
			w.Services[0].Specs[0].ServiceMs = 0
		}, "spec"},
		{"anomaly window outside horizon", func(w *workload.World) {
			// A second injection entirely past the 300 s trace.
			w.InjectPoorSQL(w.Services[1], "orders", 2, 400_000)
		}, "anomaly"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := GenerateOneWith(opt, 0, workload.KindPoorSQL, tc.mutate)
			if err == nil {
				t.Fatal("expected a validation error")
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("expected *ValidationError, got %T: %v", err, err)
			}
			if verr.Field != tc.field {
				t.Fatalf("field = %q, want %q (err: %v)", verr.Field, tc.field, err)
			}
		})
	}

	// The nil mutation still generates: validation must not reject the
	// generator's own injections.
	if _, err := GenerateOneWith(opt, 0, workload.KindPoorSQL, nil); err != nil {
		t.Fatalf("unmutated generation failed validation: %v", err)
	}
}

// TestGenerateFromParamsDeterministic: the same (opt, idx, vector) must
// reproduce the identical case — the replay contract repro bundles and the
// minimizer depend on.
func TestGenerateFromParamsDeterministic(t *testing.T) {
	opt := fastOpt()
	p := validParams()
	p.ConfuserService = 3
	p.ConfuserFactor = 2.5
	p.ConfuserLeadSec = -20
	p.ConfuserDurSec = 80

	a, err := GenerateFromParams(opt, 7, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFromParams(opt, 7, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name || a.Case.AS != b.Case.AS || a.Case.AE != b.Case.AE {
		t.Fatalf("case identity diverged: %v/%d/%d vs %v/%d/%d",
			a.Name, a.Case.AS, a.Case.AE, b.Name, b.Case.AS, b.Case.AE)
	}
	sa, sb := a.Case.Frame, b.Case.Frame
	if len(sa.Templates) != len(sb.Templates) {
		t.Fatalf("template counts diverged: %d vs %d", len(sa.Templates), len(sb.Templates))
	}
	for i := range sa.ActiveSession {
		if sa.ActiveSession[i] != sb.ActiveSession[i] {
			t.Fatalf("active session diverged at second %d", i)
		}
	}
	if len(a.RSQLs) != len(b.RSQLs) {
		t.Fatalf("truth labels diverged")
	}
}
