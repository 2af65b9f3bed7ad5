#!/bin/sh
# ci.sh — the repository's verification gate.
#
#   ./ci.sh          # gofmt + vet + build + tests (root module and
#                    # perfbench) + race detector + results/*.csv
#                    # decision check
#   ./ci.sh quick    # gofmt + vet + build + tests (root module and
#                    # perfbench) + race on the telemetry packages only
#                    # (skips the slow full pass)
#
# The -race pass matters here: the composition pipeline is concurrent
# (parallel QASSA local phase, indexed registry under RWMutex, memoized
# ontology reasoning, lock-free metrics/span instrumentation) and the
# test suite includes churn/cancellation/scrape tests written to catch
# data races.
set -eu

cd "$(dirname "$0")"

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

# perfbench is its own module (it replaces qasom with ../), so the root
# ./... never compiles it; vet and test it here, in both modes, so an
# edit to an internal API it reads fails CI instead of the benchmark.
echo "== perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

if [ "${1:-}" = "quick" ]; then
	# Selection decisions must not depend on scheduling: rerun the core
	# differentials at several GOMAXPROCS values, repeatedly, so any
	# telemetry field leaking into a compared decision shows up here.
	# The miss-path differentials ride along: the once-per-lookup offer
	# matching against VectorFor, the permutation sorts against
	# sort.SliceStable, the flat-centroid assign1D against assignPoints,
	# the taped random source against math/rand and the plan cache's
	# pre-resolved epoch probe against CapabilityEpochs. The root package
	# adds the façade differentials: plan cache and local-phase memo
	# against the uncached middleware, and tenant isolation.
	echo "== go test -cpu 1,2,4 -count 3 -run TestDifferential root, core, registry, sortx, cluster, randx (quick)"
	go test -cpu 1,2,4 -count 3 -run TestDifferential . ./internal/core ./internal/registry ./internal/sortx ./internal/cluster ./internal/randx
	# Quick still races the telemetry layer: its lock-free counters,
	# function-backed gauges, span ring, flight-recorder ring and SLO
	# bucket ring (with its differential against the raw observation
	# log) are the code most likely to regress under concurrency, and
	# these packages race-test in a couple of seconds.
	echo "== go test -race ./internal/obs (quick)"
	go test -race ./internal/obs
	# The evaluator differential suite is the correctness gate for the
	# incremental evaluation engine and the selection-plan cache
	# (bit-identical results vs the naive/uncached reference) — cheap
	# enough to race on every quick pass. The root package carries the
	# plan-cache churn differentials (including the multi-tenant shared
	# store) and the local-phase memo's raced differential (concurrent
	# composes sharing capabilities against writes on them), the registry
	# package the store's epoch/candidate
	# differentials under raced churn. The core and baseline packages
	# also carry the dependency-repair and Pareto-front differentials
	# (QASSA vs the exhaustive reference front, both eval kernels).
	echo "== go test -race -run TestDifferential . ./internal/core ./internal/baseline ./internal/registry (quick)"
	go test -race -run 'TestDifferential' . ./internal/core ./internal/baseline ./internal/registry
	# The failover suite races the one locked probing walk: the adapt
	# package's concurrent-substitution exactly-once, churn during
	# failovers, the walk against its reference pick and the dependency
	# differential, the failure handler's exclusion rule, and the
	# facade's Close contract (failover still skips withdrawn services).
	echo "== go test -race failover suite (quick)"
	go test -race -run 'TestDifferential|TestConcurrent|TestExecutor|TestResult|TestFailureHandler' ./internal/adapt
	go test -race -run 'TestFailoverAfterCloseSkipsWithdrawn' .
	# The multicore hot-path suite: raced lock-free reads in the registry
	# (torn-read check, nil-before-bump ordering, fresh keys racing list
	# rebuilds under the write lock, the whole-store refile after an
	# ontology change, publishes racing alias retargets and the refiles
	# they cause), raced eviction + epoch
	# invalidation in the copy-on-write plan cache, the shared-plan leak
	# check (substitutions copy, never write the cached Result), the
	# first-Execute table start racing a manual Substitute, behaviour
	# reads racing a behavioural switch inside Execute, concurrent
	# Compose of one interned document while other inserts rotate the
	# intern table's generations, the mutex-profile assertion that
	# the warm read paths acquire zero locks, the warm hit's
	# allocation ceiling and telemetry (root span, flight record and
	# exemplar sharing the hit's clock readings), flight-ring snapshots
	# and /debug/requests reads racing the records hits hand over
	# without a copy, first contract
	# establishment racing compliance checks, and lookups, composes,
	# substitutions and re-publishes of the same IDs reading the
	# registry's shared frozen descriptions (nothing may write one), and
	# readers racing the first, once-only build of a cached plan's
	# failover rotation.
	echo "== go test -race hot-path suite (quick)"
	go test -race -run 'TestRacedSnapshotReads|TestRacedEpochOrder|TestRacedFreshKeyVisibility|TestRebuildInvalidatesStalePublications|TestRacedAliasRetarget' ./internal/registry
	go test -race -run 'TestPlanCacheRaced|TestSharedPlansDoNotLeak|TestConcurrentExecuteAndSubstitute|TestConcurrentBehaviourReadDuringSwitch|TestConcurrentInternCompose|TestHotPathsAcquireNoMutexes|TestComposeHitAllocs|TestComposeHitTelemetry|TestTelemetryUnderConcurrency|TestConcurrentContracts|TestRacedSharedDescriptions|TestRacedFirstRotationRead' .
	# The distributed failure matrix exercises the resilience layer's
	# concurrency (hedged requests, breaker state, prompt cancellation);
	# -shuffle=on catches order-dependent breaker/fault state.
	echo "== go test -race -shuffle=on distributed failure matrix (quick)"
	go test -race -shuffle=on -run 'TestDistributed|TestServeTCP|TestExecute' ./internal/core ./internal/resilience
	# The benchmark regression gate: median of 3 short counting passes
	# against the committed BENCH_qassa.json, 15% threshold (see
	# scripts/benchcmp.sh for knobs).
	echo "== scripts/benchcmp.sh (quick)"
	sh scripts/benchcmp.sh
else
	echo "== go test -race ./..."
	go test -race ./...
	# Decision identity of the checked-in results: regenerate every
	# results/*.csv experiment and diff its non-timing columns.
	echo "== scripts/resultscheck.sh"
	sh scripts/resultscheck.sh
	# Shuffled pass over the distributed failure matrix: breaker and
	# fault-injection state must not depend on test order.
	echo "== go test -race -shuffle=on distributed failure matrix"
	go test -race -shuffle=on -run 'TestDistributed|TestServeTCP|TestExecute' ./internal/core ./internal/resilience
fi

echo "ci: all checks passed"
