// Command parbench regenerates the reconstructed evaluation: every table
// and figure indexed in DESIGN.md §3 (E1–E11, E13, E14). See
// EXPERIMENTS.md for the recorded outputs and the paper-shape commentary.
//
//	parbench                  run all experiments at full size
//	parbench -exp e2,e5       run selected experiments
//	parbench -quick           small sizes (seconds, for smoke tests)
//	parbench -json            machine-readable suite run → BENCH_results.json
//	parbench -json -out f     …written to f instead ("-" for stdout)
//	parbench -evalbench       E13 ablation: bytecode VM vs a reference-compiled program
//	parbench -evalbench -json …merged into the -out document under "eval"
//	parbench -serve           single-op vs batched ingest against an in-process server
//	parbench -serve -json     …merged into the -out document under "serve"
//	parbench -stream          E14 continuous temporal ingest (TTL eviction vs WM growth)
//	parbench -stream -json    …merged into the -out document under "stream"
//	parbench -cluster         1-node vs 3-node aggregate ingest (in-process cluster)
//	parbench -cluster -json   …merged into the -out document under "cluster"
//	parbench -durability      WAL fsync policy cost + group-commit vs always under concurrency
//	parbench -durability -json …merged into the -out document under "durability"
//	parbench -ruleprofile     per-rule match and per-meta-rule redaction tables
//	parbench -cpuprofile f    write a pprof CPU profile of the run to f
//	parbench -memprofile f    write a pprof heap profile at exit to f
//
// See docs/PERF.md for the profiling workflow.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"parulel/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1..e11, e13, e14) or 'all'")
	quick := flag.Bool("quick", false, "run reduced problem sizes")
	evalBench := flag.Bool("evalbench", false, "run the E13 expression-backend ablation (bytecode VM vs tree walker) instead of the experiment tables")
	jsonOut := flag.Bool("json", false, "run the workload suite and write a machine-readable BENCH_*.json document instead of the experiment tables")
	serve := flag.Bool("serve", false, "benchmark server-level ingest (single-op vs batched) against an in-process paruleld")
	streamBench := flag.Bool("stream", false, "benchmark continuous temporal ingest (E14) against an in-process paruleld")
	clusterBench := flag.Bool("cluster", false, "benchmark 1-node vs 3-node aggregate ingest against an in-process cluster")
	durability := flag.Bool("durability", false, "run the durability benchmark (WAL fsync policy comparison) instead of the experiment tables")
	ruleProfile := flag.Bool("ruleprofile", false, "print per-rule match attribution and per-meta-rule redaction tables instead of the experiment tables")
	top := flag.Int("top", 10, "rules shown per workload under -ruleprofile (the rest fold into one row)")
	out := flag.String("out", "BENCH_results.json", "output path for -json (\"-\" for stdout)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "parbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "parbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "parbench: %v\n", err)
			}
		}()
	}

	if *evalBench {
		doc, err := bench.RunEvalAblation(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parbench: evalbench: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := bench.MergeEvalJSON(*out, doc); err != nil {
				fmt.Fprintf(os.Stderr, "parbench: evalbench: %v\n", err)
				os.Exit(1)
			}
			if *out != "-" && len(doc.Results) > 0 {
				fmt.Fprintf(os.Stderr, "parbench: merged eval results into %s (eval speedup %.2fx on %s, %d CPU)\n",
					*out, doc.Results[0].EvalSpeedup, doc.Results[0].Workload, doc.NumCPU)
			}
		} else {
			bench.WriteEvalTable(os.Stdout, doc)
		}
		return
	}

	if *serve {
		doc, err := bench.RunServe(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parbench: serve: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := bench.MergeServeJSON(*out, doc); err != nil {
				fmt.Fprintf(os.Stderr, "parbench: serve: %v\n", err)
				os.Exit(1)
			}
			if *out != "-" {
				fmt.Fprintf(os.Stderr, "parbench: merged serve results into %s (speedup %.2fx)\n", *out, doc.BatchSpeedup)
			}
		} else {
			bench.WriteServeTable(os.Stdout, doc)
		}
		return
	}

	if *streamBench {
		doc, err := bench.RunStream(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parbench: stream: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := bench.MergeStreamJSON(*out, doc); err != nil {
				fmt.Fprintf(os.Stderr, "parbench: stream: %v\n", err)
				os.Exit(1)
			}
			if *out != "-" {
				fmt.Fprintf(os.Stderr, "parbench: merged stream results into %s (%d facts, peak WM %d)\n",
					*out, doc.FactsStreamed, doc.PeakWM)
			}
		} else {
			bench.WriteStreamTable(os.Stdout, doc)
		}
		return
	}

	if *clusterBench {
		doc, err := bench.RunCluster(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parbench: cluster: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := bench.MergeClusterJSON(*out, doc); err != nil {
				fmt.Fprintf(os.Stderr, "parbench: cluster: %v\n", err)
				os.Exit(1)
			}
			if *out != "-" {
				fmt.Fprintf(os.Stderr, "parbench: merged cluster results into %s (speedup %.2fx on %d CPU)\n", *out, doc.Speedup, doc.NumCPU)
			}
		} else {
			bench.WriteClusterTable(os.Stdout, doc)
		}
		return
	}

	if *durability {
		doc, err := bench.RunDurability(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parbench: durability: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut {
			if err := bench.MergeDurabilityJSON(*out, doc); err != nil {
				fmt.Fprintf(os.Stderr, "parbench: durability: %v\n", err)
				os.Exit(1)
			}
			if *out != "-" {
				fmt.Fprintf(os.Stderr, "parbench: merged durability results into %s (group-commit %.2fx vs always at c=%d)\n",
					*out, doc.GroupSpeedup, doc.GroupSpeedupConcurrency)
			}
		} else if err := bench.WriteDurabilityTable(os.Stdout, doc); err != nil {
			fmt.Fprintf(os.Stderr, "parbench: durability: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *ruleProfile {
		if err := bench.RuleProfiles(os.Stdout, *quick, *top); err != nil {
			fmt.Fprintf(os.Stderr, "parbench: ruleprofile: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		doc, err := bench.RunJSON(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parbench: %v\n", err)
			os.Exit(1)
		}
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "parbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := bench.WriteJSON(w, doc); err != nil {
			fmt.Fprintf(os.Stderr, "parbench: %v\n", err)
			os.Exit(1)
		}
		if *out != "-" {
			fmt.Fprintf(os.Stderr, "parbench: wrote %d results to %s\n", len(doc.Results), *out)
		}
		return
	}

	ids := bench.Order
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for i, id := range ids {
		run, ok := bench.Experiments[strings.TrimSpace(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "parbench: unknown experiment %q (want e1..e11, e13 or e14)\n", id)
			os.Exit(2)
		}
		if i > 0 {
			fmt.Println()
		}
		if err := run(os.Stdout, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "parbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}
}
