// Command pinsql-bench regenerates the tables and figures of the PinSQL
// paper's evaluation (§VIII) on the simulated substrate and prints them in
// the paper's layout.
//
// Usage:
//
//	pinsql-bench -exp all                 # every experiment
//	pinsql-bench -exp table1 -cases 40    # Table I with a 40-case corpus
//	pinsql-bench -exp fig7                # scalability sweep
//	pinsql-bench -exp sweep -param tau    # hyperparameter sensitivity
//	pinsql-bench -exp fig7 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pinsql/internal/bench"
	"pinsql/internal/cases"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code back to main so deferred profile writers
// run before the process exits (os.Exit skips defers).
func realMain() (code int) {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|fig6|fig7|fig8|table2|table3|table4|sweep|scenario|fuzz|all")
		n          = flag.Int("cases", 24, "corpus size for table1/fig6/scenario/sweep")
		seed       = flag.Int64("seed", 1, "corpus seed")
		param      = flag.String("param", "ks", "sweep parameter: ks|tau|buckets")
		small      = flag.Bool("small", false, "use reduced trace lengths (faster, noisier)")
		workers    = flag.Int("workers", 0, "worker pool for case generation and fig7's parallel curve (0 = GOMAXPROCS, 1 = sequential)")
		fuzzOut    = flag.String("fuzz-out", "BENCH_fuzz.json", "output file for the -exp fuzz report (empty = stdout only)")
		fuzzBudget = flag.Int("fuzz-budget", 0, "cases per fuzz search run (0 = default for the size)")
		corpusDir  = flag.String("corpus-dir", "", "directory the fuzz search writes repro bundles into (empty = none)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinsql-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pinsql-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pinsql-bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "pinsql-bench: memprofile: %v\n", err)
			}
		}()
	}

	corpus := func(count int) cases.Options {
		opt := cases.DefaultOptions()
		if *small {
			opt = bench.SmallCorpus(*seed, count)
		} else {
			opt.Seed = *seed
			opt.Count = count
		}
		opt.Workers = *workers
		return opt
	}

	failed := false
	run := func(name string, fn func() (fmt.Stringer, error)) {
		start := time.Now()
		res, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pinsql-bench: %s: %v\n", name, err)
			failed = true
			return
		}
		fmt.Println(res)
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	// Table I, Fig. 6 and the scenario table are reductions of one corpus
	// evaluation; -exp all evaluates once, with every Fig. 6 variant, for
	// the three.
	var shared *bench.Evaluation
	evaluated := func(variants []bench.AblationVariant, reduce func(*bench.Evaluation) formatter) func() (fmt.Stringer, error) {
		return func() (fmt.Stringer, error) {
			if shared == nil {
				if *exp == "all" {
					variants = bench.Fig6Variants()
				}
				ev, err := bench.Evaluate(corpus(*n), variants)
				if err != nil {
					return nil, err
				}
				shared = ev
			}
			return wrapped{reduce(shared)}, nil
		}
	}

	experiments := map[string]func(){
		"table1": func() {
			run("table1", evaluated(bench.Fig6Variants()[:1], func(e *bench.Evaluation) formatter { return e.TableI() }))
		},
		"fig6": func() {
			run("fig6", evaluated(bench.Fig6Variants(), func(e *bench.Evaluation) formatter { return e.Fig6() }))
		},
		"fig7": func() {
			run("fig7", func() (fmt.Stringer, error) { return wrap(bench.RunFig7(*seed, nil, nil, *workers)) })
		},
		"fig8": func() {
			run("fig8", func() (fmt.Stringer, error) { return wrap(bench.RunFig8(*seed)) })
		},
		"table2": func() {
			run("table2", func() (fmt.Stringer, error) { return wrap(bench.RunTableII(*seed, *n/2, *workers)) })
		},
		"table3": func() {
			run("table3", func() (fmt.Stringer, error) { return wrap(bench.RunTableIII(*seed, 10)) })
		},
		"table4": func() {
			run("table4", func() (fmt.Stringer, error) { return wrap(bench.RunTableIV(bench.StressOptions{Seed: *seed})) })
		},
		"sweep": func() {
			values := map[string][]float64{
				"ks":      {2, 10, 30, 100, 1000},
				"tau":     {0.5, 0.65, 0.8, 0.9, 0.97},
				"buckets": {1, 5, 10, 20, 50},
			}[*param]
			run("sweep-"+*param, func() (fmt.Stringer, error) {
				return wrap(bench.RunParamSweep(corpus(*n), *param, values))
			})
		},
		"scenario": func() {
			run("scenario", evaluated(bench.Fig6Variants()[:1], func(e *bench.Evaluation) formatter { return e.Scenario() }))
		},
		"fuzz": func() {
			run("fuzz", func() (fmt.Stringer, error) {
				res, err := bench.RunFuzzBench(bench.FuzzBenchOptions{
					Seed: *seed, Budget: *fuzzBudget, Workers: *workers,
					Small: *small, CorpusDir: *corpusDir,
				})
				if err != nil {
					return nil, err
				}
				if *fuzzOut != "" {
					data, err := json.MarshalIndent(res, "", " ")
					if err != nil {
						return nil, err
					}
					if err := os.WriteFile(*fuzzOut, append(data, '\n'), 0o644); err != nil {
						return nil, err
					}
					fmt.Printf("[fuzz report written to %s]\n", *fuzzOut)
				}
				return wrapped{res}, nil
			})
		},
	}

	if *exp == "all" {
		for _, name := range []string{"table1", "fig6", "fig7", "fig8", "table2", "table3", "table4", "scenario"} {
			experiments[name]()
		}
	} else if fn, ok := experiments[*exp]; ok {
		fn()
	} else {
		fmt.Fprintf(os.Stderr, "pinsql-bench: unknown experiment %q\n", *exp)
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// formatter is any experiment result with a Format method.
type formatter interface{ Format() string }

// wrapped adapts Format to fmt.Stringer.
type wrapped struct{ f formatter }

func (w wrapped) String() string { return w.f.Format() }

func wrap[T formatter](res T, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return wrapped{res}, nil
}
