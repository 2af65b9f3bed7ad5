#!/bin/sh
# bench.sh — run the evaluation-kernel benchmark suite and write the
# results to BENCH_qassa.json (machine-readable companion to the
# EXPERIMENTS.md narrative).
#
#   scripts/bench.sh                # one counted pass per benchmark
#   BENCH=<regex> scripts/bench.sh  # override the benchmark selection
#   OUT=<path> scripts/bench.sh    # override the output file
#
# Output schema: a JSON object keyed by benchmark name (GOMAXPROCS
# suffix stripped), each value holding ns_per_op, bytes_per_op,
# allocs_per_op (as reported by -benchmem) — the three numbers the
# acceptance criteria in ISSUE/PR discussions track. Benchmarks that
# report throughput metrics (BenchmarkThroughput's ops/sec, p50-ms,
# p99-ms custom metrics) get ops_per_sec/p50_ms/p99_ms fields too, and
# BenchmarkOpenLoop adds arrivals_per_sec plus coordinated-omission-safe
# ol_p50_us/ol_p99_us/ol_p999_us/ol_drops. The two serving benchmarks
# additionally run a GOMAXPROCS sweep (CPUS, default "1,2") whose
# entries are keyed <name>/g=<procs>, with runtime mutex/block
# contention profiles written to PROFDIR for pprof inspection.
set -eu

cd "$(dirname "$0")/.."

BENCH="${BENCH:-BenchmarkFailover|BenchmarkQASSA_RepairHeavy|BenchmarkEvalProbe|BenchmarkParetoProbe|BenchmarkParetoSelect|BenchmarkQASSA_Services|BenchmarkExhaustiveBaseline|BenchmarkGreedyBaseline|BenchmarkDistributedChurn|BenchmarkThroughput|BenchmarkOpenLoop|BenchmarkComposeFacade|BenchmarkComposeMiss|BenchmarkRegistryOps|BenchmarkRegistryCandidates}"
OUT="${OUT:-BENCH_qassa.json}"
CPUS="${CPUS:-1,2}"
PROFDIR="${PROFDIR:-bench-profiles}"

# The lock-free claim behind the serving numbers: warm plan-cache hits
# and registry candidate/epoch reads must acquire zero mutexes. Run the
# mutex-profile assertion first so a bench run certifies the claim
# alongside recording the numbers.
go test -run 'TestHotPathsAcquireNoMutexes' -count=1 .

# The 1-D K-means kernel of the local phase lives in its own package.
raw=$(go test -run '^$' -bench "$BENCH" -benchmem .
	go test -run '^$' -bench 'BenchmarkScratchKMeans1D' -benchmem ./internal/cluster)
echo "$raw"

# GOMAXPROCS sweep over the serving benchmarks, with contention
# profiling on: the mutex/block profiles are the artifact that shows
# where (if anywhere) the hot path waits as cores are added.
mkdir -p "$PROFDIR"
sweep=$(go test -run '^$' -bench 'BenchmarkThroughput$|BenchmarkOpenLoop$' -benchmem \
	-cpu "$CPUS" -mutexprofile mutex.out -blockprofile block.out \
	-outputdir "$PROFDIR" -o "$PROFDIR/qasom.test" .)
echo "$sweep"

# The front-quality table (front size, hypervolume vs the exhaustive
# reference, select p50/p99) and the open-loop latency surface
# (arrival process × rate × GOMAXPROCS) come from the experiment
# harness — the numbers a -benchmem line cannot carry.
paretodir=$(mktemp -d)
trap 'rm -rf "$paretodir"' EXIT
go run ./cmd/qasombench -exp pareto -csv "$paretodir" >/dev/null
go run ./cmd/qasombench -exp openloop -csv "$paretodir" >/dev/null

{
	echo "$raw" | awk '
BEGIN { print "{"; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; ops = ""; p50 = ""; p99 = ""; sp50 = ""; sp99 = ""; fs = ""
    arrv = ""; old = ""; op50 = ""; op99 = ""; op999 = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
        if ($i == "ops/sec")   ops = $(i - 1)
        if ($i == "p50-ms")    p50 = $(i - 1)
        if ($i == "p99-ms")    p99 = $(i - 1)
        if ($i == "sub-p50-us") sp50 = $(i - 1)
        if ($i == "sub-p99-us") sp99 = $(i - 1)
        if ($i == "front-size") fs = $(i - 1)
        if ($i == "arrv/sec")   arrv = $(i - 1)
        if ($i == "ol-drops")   old = $(i - 1)
        if ($i == "ol-p50-us")  op50 = $(i - 1)
        if ($i == "ol-p99-us")  op99 = $(i - 1)
        if ($i == "ol-p999-us") op999 = $(i - 1)
    }
    if (ns == "") next
    if (!first) printf ",\n"
    first = 0
    printf "  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", name, ns, bytes, allocs
    if (ops != "") printf ", \"ops_per_sec\": %s, \"p50_ms\": %s, \"p99_ms\": %s", ops, p50, p99
    if (sp99 != "") printf ", \"sub_p50_us\": %s, \"sub_p99_us\": %s", sp50, sp99
    if (fs != "") printf ", \"front_size\": %s", fs
    if (arrv != "") printf ", \"arrivals_per_sec\": %s, \"ol_drops\": %s, \"ol_p50_us\": %s, \"ol_p99_us\": %s, \"ol_p999_us\": %s", arrv, old, op50, op99, op999
    printf "}"
}
END { }
'
	# The GOMAXPROCS sweep keeps the -N name suffix (as /g=N) so each
	# CPU count gets its own entry; no suffix means GOMAXPROCS=1.
	echo "$sweep" | awk '
/^Benchmark/ {
    name = $1
    g = "1"
    if (match(name, /-[0-9]+$/)) {
        g = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    ns = ""; bytes = ""; allocs = ""; ops = ""; p50 = ""; p99 = ""
    arrv = ""; old = ""; op50 = ""; op99 = ""; op999 = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")      ns = $(i - 1)
        if ($i == "B/op")       bytes = $(i - 1)
        if ($i == "allocs/op")  allocs = $(i - 1)
        if ($i == "ops/sec")    ops = $(i - 1)
        if ($i == "p50-ms")     p50 = $(i - 1)
        if ($i == "p99-ms")     p99 = $(i - 1)
        if ($i == "arrv/sec")   arrv = $(i - 1)
        if ($i == "ol-drops")   old = $(i - 1)
        if ($i == "ol-p50-us")  op50 = $(i - 1)
        if ($i == "ol-p99-us")  op99 = $(i - 1)
        if ($i == "ol-p999-us") op999 = $(i - 1)
    }
    if (ns == "") next
    printf ",\n  \"%s/g=%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", name, g, ns, bytes, allocs
    if (ops != "") printf ", \"ops_per_sec\": %s, \"p50_ms\": %s, \"p99_ms\": %s", ops, p50, p99
    if (arrv != "") printf ", \"arrivals_per_sec\": %s, \"ol_drops\": %s, \"ol_p50_us\": %s, \"ol_p99_us\": %s, \"ol_p999_us\": %s", arrv, old, op50, op99, op999
    printf "}"
}
'
	# One JSON entry per front-quality row, keyed by regime and
	# objective count (csv: regime,objectives,front_size,ref_size,
	# hv_ratio_pct,p50_ms,p99_ms).
	awk -F, 'NR > 1 {
    printf ",\n  \"ExpPareto/regime=%s/m=%s\": {\"front_size\": %s, \"ref_size\": %s, \"hv_ratio_pct\": %s, \"p50_ms\": %s, \"p99_ms\": %s}", $1, $2, $3, $4, $5, $6, $7
}' "$paretodir/pareto.csv"
	# One entry per open-loop cell, keyed by GOMAXPROCS, arrival process
	# and offered rate (csv: gomaxprocs,process,rate/s,arrivals,completed,
	# dropped,achieved/s,p50 (ms),p99 (ms),p999 (ms),hit rate).
	awk -F, 'NR > 1 {
    printf ",\n  \"ExpOpenLoop/g=%s/proc=%s/rate=%s\": {\"arrivals\": %s, \"completed\": %s, \"dropped\": %s, \"achieved_per_sec\": %s, \"p50_ms\": %s, \"p99_ms\": %s, \"p999_ms\": %s, \"hit_rate\": %s}", $1, $2, $3, $4, $5, $6, $7, $8, $9, $10, $11
}' "$paretodir/openloop.csv"
	printf '\n}\n'
} >"$OUT"

echo "bench: wrote $OUT"
