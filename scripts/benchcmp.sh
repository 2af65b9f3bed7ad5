#!/bin/sh
# benchcmp.sh — benchmark regression gate.
#
# Runs the tier-1 benchmark suite RUNS times (default 3; 5 in A/B mode),
# takes the per-metric median, and compares ns_per_op / bytes_per_op /
# allocs_per_op against the committed baseline in BENCH_qassa.json. Any
# metric whose median exceeds its baseline by more than THRESHOLD
# (default 15%) fails the gate. The median over multiple runs is what
# keeps the gate non-flaky: a single noisy run cannot push a metric over
# the threshold on its own.
#
#   scripts/benchcmp.sh                      # full gate
#   RUNS=5 THRESHOLD=10 scripts/benchcmp.sh  # stricter
#   BENCH=<regex> scripts/benchcmp.sh        # subset of benchmarks
#   BENCHTIME=0.3s scripts/benchcmp.sh       # faster counting passes
#
# BENCH selects benchmarks of the root package and of internal/core,
# REGBENCH the root package's registry rows.
#
# Only benchmarks present in BOTH the run and the baseline are compared
# (a new benchmark cannot fail the gate before its baseline is
# committed; ops_per_sec-style throughput fields are recorded but not
# gated — wall-clock throughput is too machine-dependent for a hard
# threshold).
#
# A/B mode compares ns/op against a parent revision run on the same host
# instead of against the committed baseline, whose ns/op may have been
# recorded on a faster or quieter machine:
#
#   PARENT=HEAD~1 scripts/benchcmp.sh
#
# It exports the parent's tree (git archive) into a temporary directory,
# builds one test binary per tree and runs them alternately, RUNS passes
# each (the order flips every pass, so drift in host speed hits both
# sides alike). Each benchmark's ns/op is gated on the median over passes
# of change/parent, at the same THRESHOLD; bytes_per_op and
# allocs_per_op stay absolute against the baseline file. A/B mode
# defaults to 5 passes: with 3, rows whose code did not change read
# 0.82-1.10 change/parent on a 2-vCPU host, too close to the threshold.
set -eu

cd "$(dirname "$0")/.."

BASE="${BASE:-BENCH_qassa.json}"
# BenchmarkThroughput rides the gate as the tracing-overhead check: the
# serving hot path carries a span, a flight record and an SLO
# observation per composition (one per-second bucket bump; burn rates
# are computed when read, not per request), and the alloc/byte budgets
# keep that instrumentation honest. BenchmarkFailover gates the recovery path the
# same way: mode=reactive is the one failover path, the probing walk over
# the rotation, plus the steady-state round overhead.
# BenchmarkParetoProbe gates the multi-objective vector probe (must stay
# O(path) and zero-alloc, within a few x of the scalar EvalProbe);
# BenchmarkParetoSelect gates both front-mode regimes end to end.
# BenchmarkOpenLoop gates the open-loop serving path (dispatcher + queue
# + workers + coordinated-omission-safe capture): its ns/op is per
# arrival at a fixed offered rate, so the alloc/byte budgets guard the
# harness overhead rather than the wall clock. BenchmarkComposeFacade is
# the single-client warm hit of an inline document: its alloc/byte
# budgets catch a return to per-request BPEL parsing.
# BenchmarkComposeMiss is a plan-cache miss served by the local-phase
# memo: its alloc/byte budgets catch a return to per-miss candidate
# lookup and clustering.
# BenchmarkEngineBuild (internal/core) is one global-phase
# engine build over memo-served local results: its alloc budget catches
# a return to compiling the task tree or copying the local phase's
# utilities per build.
BENCH="${BENCH:-BenchmarkFailover|BenchmarkQASSA_RepairHeavy|BenchmarkEvalProbe|BenchmarkParetoProbe|BenchmarkParetoSelect|BenchmarkQASSA_Services|BenchmarkExhaustiveBaseline|BenchmarkGreedyBaseline|BenchmarkDistributedChurn|BenchmarkThroughput|BenchmarkOpenLoop|BenchmarkComposeFacade|BenchmarkComposeMiss|BenchmarkEngineBuild}"
# The registry benchmarks are gated at the 100k population only: the
# 1M rigs exist for the recorded table, not for a quick regression pass
# (component-wise -bench regex, hence a separate run).
REGBENCH="${REGBENCH:-BenchmarkRegistryOps/op=(lookup|churn)/n=100k}"
PARENT="${PARENT:-}"
if [ -n "$PARENT" ]; then
	RUNS="${RUNS:-5}"
else
	RUNS="${RUNS:-3}"
fi
THRESHOLD="${THRESHOLD:-15}"
BENCHTIME="${BENCHTIME:-0.5s}"

if [ ! -f "$BASE" ]; then
	echo "benchcmp: baseline $BASE missing" >&2
	exit 1
fi

# Each side is built once into a test binary per package under a
# temporary directory; without PARENT the only side is the working tree.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
go test -c -o "$tmp/change.test" .
go test -c -o "$tmp/change-core.test" ./internal/core
if [ -n "$PARENT" ]; then
	mkdir "$tmp/parent"
	git archive "$PARENT" | tar -x -C "$tmp/parent"
	(cd "$tmp/parent" && go test -c -o "$tmp/parent.test" . && go test -c -o "$tmp/parent-core.test" ./internal/core)
fi

# bench SIDE: one counting pass of one side, run from its source tree.
bench() {
	if [ "$1" = PARENT ]; then
		dir="$tmp/parent"
	else
		dir=.
	fi
	bin="$tmp/$(echo "$1" | tr A-Z a-z)"
	for re in "$BENCH" "$REGBENCH"; do
		(cd "$dir" && "$bin.test" -test.timeout 10m -test.run '^$' -test.bench "$re" -test.benchtime "$BENCHTIME" -test.benchmem)
	done
	(cd "$dir/internal/core" && "$bin-core.test" -test.timeout 10m -test.run '^$' -test.bench "$BENCH" -test.benchtime "$BENCHTIME" -test.benchmem)
}

raw=""
i=1
while [ "$i" -le "$RUNS" ]; do
	echo "benchcmp: counting pass $i/$RUNS" >&2
	if [ -z "$PARENT" ]; then
		sides="CHANGE"
	elif [ $((i % 2)) -eq 1 ]; then
		sides="PARENT CHANGE"
	else
		sides="CHANGE PARENT"
	fi
	for side in $sides; do
		raw="$raw
=== $side $i ===
$(bench "$side")"
	done
	i=$((i + 1))
done

# Feed the baseline and every run through one awk pass: collect the
# samples per benchmark/metric, compare medians against the baseline.
{
	echo "=== BASELINE ==="
	cat "$BASE"
	echo "=== RUNS ==="
	echo "$raw"
} | awk -v threshold="$THRESHOLD" -v ab="${PARENT:+1}" '
function median(arr, n,    i, tmp, j, t) {
    for (i = 1; i <= n; i++) tmp[i] = arr[i]
    for (i = 2; i <= n; i++) {
        t = tmp[i]
        for (j = i - 1; j >= 1 && tmp[j] > t; j--) tmp[j + 1] = tmp[j]
        tmp[j + 1] = t
    }
    return tmp[int((n + 1) / 2)]
}
/^=== BASELINE ===$/ { section = "base"; next }
/^=== RUNS ===$/     { section = "runs"; next }
section == "base" && /"ns_per_op"/ {
    line = $0
    gsub(/[",:{}]/, " ", line)
    split(line, f, /[ \t]+/)
    name = f[2]
    for (i = 1; i in f; i++) {
        if (f[i] == "ns_per_op")     base_ns[name]     = f[i + 1]
        if (f[i] == "bytes_per_op")  base_bytes[name]  = f[i + 1]
        if (f[i] == "allocs_per_op") base_allocs[name] = f[i + 1]
    }
}
section == "runs" && /^=== (PARENT|CHANGE) [0-9]+ ===$/ { side = $2; pass = $3; next }
section == "runs" && /^Benchmark/ && side == "PARENT" {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++)
        if ($i == "ns/op") parent_ns[name, pass] = $(i - 1)
    next
}
section == "runs" && /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     { n_ns[name]++;     ns[name, n_ns[name]] = $(i - 1); change_ns[name, pass] = $(i - 1) }
        if ($i == "B/op")      { n_b[name]++;      b[name, n_b[name]] = $(i - 1) }
        if ($i == "allocs/op") { n_a[name]++;      a[name, n_a[name]] = $(i - 1) }
    }
    seen[name] = 1
    if (pass > passes) passes = pass
}
END {
    failed = 0
    compared = 0
    for (name in seen) {
        if (!(name in base_ns)) continue
        compared++
        # Re-pack the per-name samples into 1-based arrays for median().
        delete s
        for (i = 1; i <= n_ns[name]; i++) s[i] = ns[name, i]
        m_ns = median(s, n_ns[name])
        delete s
        for (i = 1; i <= n_b[name]; i++) s[i] = b[name, i]
        m_b = median(s, n_b[name])
        delete s
        for (i = 1; i <= n_a[name]; i++) s[i] = a[name, i]
        m_a = median(s, n_a[name])
        if (ab) abcheck(name)
        else check(name, "ns/op", m_ns, base_ns[name])
        check(name, "B/op",      m_b,  base_bytes[name])
        check(name, "allocs/op", m_a,  base_allocs[name])
    }
    if (compared == 0) {
        print "benchcmp: no benchmark overlapped the baseline — check BENCH regex" > "/dev/stderr"
        exit 1
    }
    printf "benchcmp: %d benchmarks compared, threshold %s%%%s\n", compared, threshold, ab ? ", ns/op against the parent" : ""
    if (failed) exit 1
}
# abcheck gates the ns/op of one benchmark on the median over passes of the
# change/parent ratio (passes where either side lacks the row are left
# out; a benchmark the parent does not have is not gated).
function abcheck(name,    i, n, r, m) {
    n = 0
    for (i = 1; i <= passes; i++)
        if ((name, i) in parent_ns && (name, i) in change_ns && parent_ns[name, i] > 0)
            r[++n] = change_ns[name, i] / parent_ns[name, i]
    if (n == 0) {
        printf "skip %-55s %-10s not in the parent\n", name, "ns/op"
        return
    }
    m = median(r, n)
    if (m > 1 + threshold / 100) {
        printf "FAIL %s ns/op: change/parent median ratio %.3f exceeds 1 + %s%%\n", name, m, threshold
        failed = 1
    } else {
        printf "ok   %-55s %-10s %12.3f (change/parent, median of %d)\n", name, "ns/op", m, n
    }
}
function check(name, metric, got, want,    limit) {
    if (want == 0) {
        # A zero baseline (e.g. the eval probe allocs) must stay zero.
        if (got > 0) {
            printf "FAIL %s %s: %g, baseline 0\n", name, metric, got
            failed = 1
        }
        return
    }
    limit = want * (1 + threshold / 100)
    if (got > limit) {
        printf "FAIL %s %s: %g exceeds baseline %g by more than %s%%\n", name, metric, got, want, threshold
        failed = 1
    } else {
        printf "ok   %-55s %-10s %12g (baseline %g)\n", name, metric, got, want
    }
}
'
echo "benchcmp: gate passed"
