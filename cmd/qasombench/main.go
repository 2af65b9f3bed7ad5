// Command qasombench regenerates the evaluation artefacts of the paper:
// every table and figure has a harness experiment (see DESIGN.md for the
// index). Results print as aligned text tables and can be exported as
// CSV files for plotting.
//
// Usage:
//
//	qasombench -list                 # show the experiment inventory
//	qasombench -exp vi5a             # run one experiment
//	qasombench -all                  # run everything (slow)
//	qasombench -all -quick           # smoke-test sweep sizes
//	qasombench -exp vi6a -csv out/   # also write out/vi6a.csv
//	qasombench -exp vi5a -metrics -  # dump the telemetry registry after the run
//
// -metrics writes the process-wide metrics registry (Prometheus text
// format: compose/execute counters and latency histograms, QASSA phase
// splits, monitor and adaptation counters) to the given file, or to
// standard output with "-", after every experiment has run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"qasom/internal/bench"
	"qasom/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qasombench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		exp     = fs.String("exp", "", "comma-separated experiment IDs to run")
		all     = fs.Bool("all", false, "run every experiment")
		quick   = fs.Bool("quick", false, "use reduced sweep sizes")
		seed    = fs.Int64("seed", 1, "workload seed")
		reps    = fs.Int("reps", 0, "repetitions per measured point (0 = default)")
		csvDir  = fs.String("csv", "", "directory to write <id>.csv files into")
		metrics = fs.String("metrics", "", "file to dump the metrics registry into after the run (Prometheus text; \"-\" for stdout)")
		verbose = fs.Bool("v", false, "print expected shapes alongside results")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintf(stdout, "%-20s %-28s %s\n", "ID", "PAPER", "TITLE")
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-20s %-28s %s\n", e.ID, e.Paper, e.Title)
		}
		return 0
	}

	var ids []string
	switch {
	case *all:
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(stderr, "nothing to do: pass -list, -all or -exp <id> (see -h)")
		return 2
	}

	// Results flush to disk as each experiment completes (and experiments
	// that honour ctx return their partial table on SIGINT), so
	// interrupting a long sweep keeps everything measured so far.
	cfg := bench.Config{Quick: *quick, Seed: *seed, Repetitions: *reps, Ctx: ctx}
	writer := &resultWriter{dir: *csvDir}
	failed := 0
	interrupted := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e := bench.ByID(id)
		if e == nil {
			fmt.Fprintf(stderr, "unknown experiment %q (use -list)\n", id)
			failed++
			continue
		}
		fmt.Fprintf(stdout, "### %s — %s\n", e.Paper, e.Title)
		if *verbose {
			fmt.Fprintf(stdout, "expected: %s\n", e.Expected)
		}
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Fprint(stdout, table.String())
		fmt.Fprintf(stdout, "(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if err := writer.Write(id, table); err != nil {
			fmt.Fprintf(stderr, "write %s: %v\n", id, err)
			return 1
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
	}
	if interrupted {
		fmt.Fprintln(stderr, "interrupted: partial results flushed")
	}
	if *metrics != "" {
		if err := dumpMetrics(*metrics, stdout); err != nil {
			fmt.Fprintf(stderr, "metrics: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	if interrupted {
		return 130
	}
	return 0
}

// dumpMetrics writes the process-wide telemetry registry — which every
// middleware instance the experiments created reported into — in
// Prometheus text format, stamped with the build identity so archived
// dumps stay attributable to the binary that produced them.
func dumpMetrics(path string, stdout io.Writer) error {
	reg := obs.Default().Metrics
	obs.RegisterBuildInfo(reg)
	if path == "-" {
		fmt.Fprintln(stdout, "### telemetry registry")
		return reg.WritePrometheus(stdout)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
