// Command perfbench is dsserve's end-to-end benchmark. It boots real
// cluster.Node instances in its own process, each on a loopback
// http.Server, drives one seeded closed-loop workload over HTTP, checks
// every answer, and prints the end-to-end metrics; with -trace 1 it replays
// the same request stream through the layers' public functions and prints
// per-layer metrics instead. See README.md.
//
//	go run . --workload hot-hits --seed 1 --seconds 20 --trace 0
//	go run . --steady 10 --seconds 20
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	o := options{sz: defaultSizes, setups: 3, testdata: "testdata/go"}
	flag.StringVar(&o.workload, "workload", "", "workload: hot-hits, cold-mix or cluster-sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every request is derived from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-<seed>.tsv)")
	steady := flag.Int("steady", 0, "steadiness mode: run every workload this many times and print the spread")
	flag.Parse()
	o.trace = *traceFlag == 1

	if *steady > 0 {
		if err := steadiness(*steady, o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if o.workload == "" || (*traceFlag != 0 && *traceFlag != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.tsv", o.workload, o.seed))
	}
	res, err := runBench(&o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
