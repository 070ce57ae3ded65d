// Command perfbench is the repository's benchmark. It runs one of three
// seeded closed-loop workloads (tpcb, meters, catalog) through the public
// tdb API on the paper's simulated disk, checks the results, and prints
// every metric by name and unit, ending with one JSON line:
//
//	go run . --workload tpcb --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced windows and reports the per-layer metrics
// and the tracing overhead. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := runConfig{setups: 3}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: tpcb, meters or catalog")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured run length in seconds")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory the spans of a traced run are written to")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics := endToEnd(out)
	if cfg.trace {
		metrics = perLayer(out)
	}
	res := result{Correct: out.checkErr == nil, Metrics: map[string]metricValue{}}
	for _, p := range out.phases {
		res.Attempted += p.ops()
		res.Failed += p.totalFailed()
	}
	for _, m := range metrics {
		fmt.Printf("%-40s %14.4f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if out.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", out.checkErr)
		os.Exit(1)
	}
}
