// Command perfbench is the repository's benchmark: it runs one named
// workload of the trace pipeline (scenario engine, synthetic and CPT-GPT
// sources, mcn sink) or of the cptserved daemon over its HTTP API, checks
// every operation's output, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload synth-flash-mcn --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced operations with operations whose layers are timed
// from outside, and reports the per-layer table and the tracing overhead.
// The last line of standard output is one JSON object (with --workload
// all, one such line follows each workload's table):
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// README.md in this directory records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name ("+workloadNames()+"), or all to run each in turn")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: seeds the scenario spec")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds (at least three operations run regardless)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for spill, journal and output files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	cfg.trace = *trace == 1
	cfg.sizes = benchSizes

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	correct := true
	for _, name := range names {
		cfg.workload = name
		res, err := runBench(cfg, os.Stdout)
		if err != nil {
			fatalf("perfbench: %v", err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatalf("perfbench: %v", err)
		}
		fmt.Println(string(line))
		correct = correct && res.Correct
	}
	if !correct && len(names) > 1 {
		fatalf("perfbench: some workload's output checks failed")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
