// Command benchmark is the repository's one benchmark: four recorded
// workloads driven through the unchanged monitoring pipeline with the
// workload generator outside the clock, end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. BENCHMARK.json at the repo
// root names the workloads and metrics with their units, directions and
// regression bounds; README.md in this directory explains them.
//
// The benchmark driver runs one workload per invocation,
//
//	go run ./benchmark -workload fleet-replay -seed 1 -seconds 12 -trace 0
//
// and reads the last line of standard output. Without -workload every
// workload runs, untraced then traced, and the exit code is non-zero when
// any output check failed; -aa runs the untraced suite twice and compares
// the two against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one definition of which workloads and
// metrics exist. The program emits exactly the metrics it lists.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// reportedQuantile is the order statistic a metric reports from its sample;
// metrics not listed report the median.
var reportedQuantile = map[string]float64{
	"latency_ms_p90": 0.90,
}

// value is the number a metric reports: a quantile of its sample.
func value(name string, s sample) float64 {
	q, ok := reportedQuantile[name]
	if !ok {
		q = 0.5
	}
	return s.Quantile(q)
}

// options are the knobs of one invocation.
type options struct {
	spec    *benchSpec
	sz      sizes
	seed    int64
	seconds float64
	tmp     string // parent of the per-run scratch directories
	out     string // where trace.jsonl and results.json go
}

// runWorkload sets the workload up and measures it.
func runWorkload(w *workloadDef, opt options, traced bool) (*result, error) {
	if err := os.MkdirAll(opt.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := newResult()
	host := newSpeedometer(refReps, res)
	start := time.Now()
	in, err := w.setup(opt.sz, opt.seed, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	res.e2e["setup_s"] = sample{time.Since(start).Seconds() / host.lap()}
	res.layer["dbsim.sim_ns_per_record"] = sample{in.simNsPerRecord()}
	if traced {
		err = runTraced(w, in, opt, res)
	} else {
		err = w.run(w, in, opt.seconds, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return res, nil
}

// metricsOf picks the spec'd metrics out of a result; a metric the run did
// not produce is an error of the benchmark, not a zero. The driver's result
// line takes value and unit only; results.json also gets the sample's
// quartiles and size.
func metricsOf(specs []metricSpec, got map[string]sample, withSpread bool) (map[string]any, error) {
	out := make(map[string]any, len(specs))
	for _, m := range specs {
		s, ok := got[m.Name]
		if !ok || len(s) == 0 {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		v := value(m.Name, s)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		entry := map[string]any{"value": v, "unit": m.Unit}
		if withSpread {
			entry["q1"], entry["q3"] = s.Quantile(0.25), s.Quantile(0.75)
			entry["n"] = len(s)
		}
		out[m.Name] = entry
	}
	return out, nil
}

// printTable prints every metric by name with its unit, reported value,
// quartiles of the sample behind it, and the sample count.
func printTable(title string, specs []metricSpec, got map[string]sample) {
	fmt.Printf("%s\n  %-40s %-8s %14s %14s %14s %6s\n", title, "metric", "unit", "value", "q1", "q3", "n")
	for _, m := range specs {
		s := got[m.Name]
		fmt.Printf("  %-40s %-8s %14.6g %14.6g %14.6g %6d\n", m.Name, m.Unit, value(m.Name, s), s.Quantile(0.25), s.Quantile(0.75), len(s))
	}
}

// printResult prints one run's table and the outcome of its checks.
func printResult(name string, spec *benchSpec, res *result, traced bool) {
	if traced {
		printTable(name+" per-layer (traced run)", spec.PerLayer, res.layer)
	} else {
		printTable(name+" end-to-end", spec.EndToEnd, res.e2e)
		slow := res.layer["bench.host_slowdown"]
		fmt.Printf("  host: %.2f times slower than reference (median of %d laps; see hostspeed.go for which times are divided by it)\n", slow.Median(), len(slow))
	}
	fmt.Printf("  checks: attempted=%d failed=%d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Printf("  FAILED %s: %s\n", name, f)
	}
}

// environment is what a recorded number depends on besides the code.
func environment(opt options) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     "unknown",
		"seed":       opt.seed,
		"seconds":    opt.seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if env["commit"] == "unknown" { // `go run` does not stamp the binary
		if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env["commit"] = strings.TrimSpace(string(rev))
		}
	}
	return env
}

// resetTrace empties trace.jsonl, to which each traced workload appends its
// spans; only an invocation that will trace calls it.
func resetTrace(opt options) error {
	return os.WriteFile(filepath.Join(opt.out, "trace.jsonl"), nil, 0o644)
}

// runOne is the driver's mode: one workload, one result line.
func runOne(w *workloadDef, opt options, traced bool) error {
	if traced {
		if err := resetTrace(opt); err != nil {
			return err
		}
	}
	res, err := runWorkload(w, opt, traced)
	if err != nil {
		return err
	}
	specs, got := opt.spec.EndToEnd, res.e2e
	if traced {
		specs, got = opt.spec.PerLayer, res.layer
	}
	metrics, err := metricsOf(specs, got, false)
	if err != nil {
		return err
	}
	printResult(w.name, opt.spec, res, traced)
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runSuite runs every workload untraced and, unless e2eOnly, traced, and
// returns the untraced results by workload name.
func runSuite(opt options, e2eOnly bool) (map[string]*result, error) {
	all := map[string]*result{}
	doc := map[string]any{"environment": environment(opt)}
	if !e2eOnly {
		if err := resetTrace(opt); err != nil {
			return nil, err
		}
	}
	failed := 0
	for _, w := range workloads {
		res, err := runWorkload(w, opt, false)
		if err != nil {
			return nil, err
		}
		all[w.name] = res
		printResult(w.name, opt.spec, res, false)
		failed += res.failed
		entry := map[string]any{"attempted": res.attempted, "failed": res.failed}
		if entry["end_to_end"], err = metricsOf(opt.spec.EndToEnd, res.e2e, true); err != nil {
			return nil, err
		}
		if !e2eOnly {
			tr, err := runWorkload(w, opt, true)
			if err != nil {
				return nil, err
			}
			printResult(w.name, opt.spec, tr, true)
			failed += tr.failed
			if entry["per_layer"], err = metricsOf(opt.spec.PerLayer, tr.layer, true); err != nil {
				return nil, err
			}
		}
		doc[w.name] = entry
	}
	if !e2eOnly {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(opt.out, "results.json"), append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return all, fmt.Errorf("%d output checks failed", failed)
	}
	return all, nil
}

// runAA runs the untraced suite twice and compares the two sets of
// medians: a benchmark whose A/A gap exceeds its own regression bound
// cannot tell a regression from noise.
func runAA(opt options) error {
	a, err := runSuite(opt, true)
	if err != nil {
		return err
	}
	b, err := runSuite(opt, true)
	if err != nil {
		return err
	}
	fmt.Printf("A/A comparison\n  %-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	over := 0
	for _, w := range workloads {
		for _, m := range opt.spec.EndToEnd {
			va, vb := value(m.Name, a[w.name].e2e[m.Name]), value(m.Name, b[w.name].e2e[m.Name])
			// The gap is how much worse the second run reads than the first.
			gap := (vb - va) / va
			if m.Better == "higher" {
				gap = (va - vb) / va
			}
			flag := ""
			if gap > m.Bound {
				flag = "  OVER BOUND"
				over++
			}
			fmt.Printf("  %-14s %-22s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", w.name, m.Name, va, vb, gap*100, m.Bound*100, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", over)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "run this one workload and print one JSON result line (default: run them all)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 0, "how long each run measures (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "with -workload: 1 runs the traced per-layer run instead of the end-to-end one")
		aa       = flag.Bool("aa", false, "run the end-to-end suite twice and compare the two against the bounds")
		specPath = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		tmp      = flag.String("tmp", ".bench_build", "directory for scratch files (log files, data directories)")
		out      = flag.String("out", "", "directory for trace.jsonl and results.json (default: out under -tmp)")
	)
	flag.Parse()
	spec, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	opt := options{spec: spec, sz: benchSizes, seed: *seed, seconds: *seconds, tmp: *tmp, out: *out}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	if opt.out == "" {
		opt.out = filepath.Join(opt.tmp, "out")
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	fmt.Printf("environment: %v\n", environment(opt))
	switch {
	case *workload != "":
		w := workloadByName(*workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		return runOne(w, opt, *trace != 0)
	case *aa:
		return runAA(opt)
	default:
		_, err := runSuite(opt, false)
		return err
	}
}
