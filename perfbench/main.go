// Command perfbench is the QASOM serving benchmark. It builds a fixed
// service population and plan-key set per workload, drives the qasom
// facade with one closed-loop client per CPU, checks every answer, and
// prints its metrics as one JSON object on the last line of standard
// output.
//
//	perfbench --workload warm_compose --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 is a
// separate run that alternates untraced and traced windows and reports
// per-layer metrics from spans the benchmark records around its own
// calls into each layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	window   time.Duration // 0: the workload's measurement window
	warmup   time.Duration // 0: the workload's warm-up
	setups   int           // 0: the workload's own set-up count
	spans    string        // span file of a traced run ("" writes none)
	// corrupt, when set, alters the reference decisions before the run
	// (the gate must then count failures).
	corrupt func([]decision)
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: warm_compose, churn_select or execute_adapt")
		seed     = fs.Int64("seed", 1, "workload seed (request order, write and failure targets)")
		seconds  = fs.Int("seconds", 30, "measured seconds")
		trace    = fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		spansDir = fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
	}
	if cfg.trace && *spansDir != "" {
		cfg.spans = filepath.Join(*spansDir, cfg.workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".jsonl")
	}
	out, err := run(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	v, err := json.Marshal(out.validity)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "validity %s\n", v)
	res, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", res)
	return 0
}
