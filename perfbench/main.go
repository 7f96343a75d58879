// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time from a seed and prints, as its last line,
// a JSON result: the end-to-end metrics measured with tracing off, or
// with --trace 1 the per-layer metrics of a traced run. Every output is
// checked; a failed check makes the result incorrect and the exit code 1.
//
//	bash perfbench/run.sh --workload alexsys-batch --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	alexsys-batch  redaction-bound: alexsys over 150 pools × 100 orders
//	waltz-batch    match-bound: waltz over a 300-cube scene
//	alloc-serve    the durable serving path: two HTTP clients, four sessions
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "alexsys-batch, waltz-batch or alloc-serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for data files and the written trace")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}

	var m *measurements
	var err error
	if spec, ok := batchSpecs[cfg.workload]; ok {
		m, err = runBatch(cfg, spec)
	} else if cfg.workload == "alloc-serve" {
		m, err = runServe(cfg)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}

	defs, vals := endToEndDefs, map[string]float64(nil)
	if cfg.trace {
		defs, vals = perLayerDefs, m.perLayer()
		name := fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)
		path, err := m.rec.write(filepath.Join(cfg.work, "trace"), name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		m.note("spans: %d written to %s (%d dropped)", len(m.rec.spans), path, m.rec.dropped)
	} else {
		vals = m.endToEnd()
	}
	printSummary(os.Stdout, cfg, m, defs, vals)
	res := toResult(m, defs, vals)
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
