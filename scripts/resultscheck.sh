#!/bin/sh
# resultscheck.sh — decision-identity gate for the checked-in results.
#
# Regenerates every experiment that has a file in results/ into a
# temporary directory and compares each file against the checked-in one
# on every non-timing column: optimality, feasibility, evaluation and
# substitution counts, graph sizes and so on. Timing columns (names
# ending in _ms or _us, apart from the simulated QoS readings of the
# mobility experiment) vary from run to run and are skipped. The rows
# must match in number and order.
#
#   scripts/resultscheck.sh
#
# Exit status 1 names every differing row.
set -eu

cd "$(dirname "$0")/.."

EXPS=$(ls results/*.csv | sed 's|^results/||; s|\.csv$||' | paste -sd, -)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/qasombench -exp "$EXPS" -csv "$tmp" >/dev/null

fail=0
for id in $(echo "$EXPS" | tr ',' ' '); do
	want="results/$id.csv"
	got="$tmp/$id.csv"
	if [ ! -f "$got" ]; then
		echo "resultscheck: $id wrote no CSV" >&2
		fail=1
		continue
	fi
	awk -F, -v id="$id" '
	function timing(name) {
		if (name == "delivered_rt_ms" || name == "monitor_estimate_ms")
			return 0
		return name ~ /_(ms|us)$/
	}
	function project(    i, out) {
		out = ""
		for (i = 1; i <= NF; i++)
			if (!skip[i])
				out = out "," $i
		return out
	}
	FNR == 1 {
		if (NR == FNR) {
			header = $0
			for (i = 1; i <= NF; i++)
				skip[i] = timing($i)
		} else if ($0 != header) {
			printf "%s: header %s, want %s\n", id, $0, header
			bad = 1
		}
		next
	}
	NR == FNR { want[FNR] = project(); nwant = FNR; next }
	{
		ngot = FNR
		if (project() != want[FNR]) {
			printf "%s row %d: got %s, want %s\n", id, FNR - 1, substr(project(), 2), substr(want[FNR], 2)
			bad = 1
		}
	}
	END {
		if (ngot != nwant) {
			printf "%s: %d rows, want %d\n", id, ngot - 1, nwant - 1
			bad = 1
		}
		exit bad
	}' "$want" "$got" || fail=1
done

if [ "$fail" -ne 0 ]; then
	echo "resultscheck: regenerated results differ from results/" >&2
	exit 1
fi
echo "resultscheck: every non-timing column matches results/"
