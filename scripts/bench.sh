#!/bin/sh
# bench.sh — run the performance benchmarks and emit a machine-readable
# BENCH_<tag>.json artifact (ns/op, B/op, allocs/op and the custom metrics
# the benchmarks report, e.g. the campaign's "runs" and the VM's Minstr/s).
#
# Usage:
#   scripts/bench.sh [tag] [bench-regex]
#
#   tag          suffix of the artifact: BENCH_<tag>.json (default: local)
#   bench-regex  benchmarks to run (default: the campaign A/B pair, the VM
#                throughput benchmarks — block-compiled vs interpreter —
#                and the block-compile cost benchmark)
#
# EXTRA_LABELS may hold additional "-label k=v" pairs to embed in the
# artifact, e.g. baseline numbers measured on a pre-change checkout:
#   EXTRA_LABELS="-label baseline_campaign_s=48.3" scripts/bench.sh pr2
#
# The fabric scaling run (PR 7) is invoked as:
#   scripts/bench.sh pr7 'Table4Fabric'
# When the output holds Table4Fabric/executors=N results, the artifact gains
# derived labels: fabric_speedup_2x (1-executor ns/op over 2-executor) and
# fabric_efficiency_2x (that speedup per executor). Executors are paced to a
# fixed per-unit service rate (see BenchmarkTable4Fabric), so the numbers
# measure the fabric's scheduling and merge, not this machine's core count.
#
# The storage-chaos run (PR 9) is invoked as:
#   BENCHTIME=3x scripts/bench.sh pr9 'Table4DiskChaos'
# When the output holds the Table4DiskChaos/overhead result, the artifact
# gains disk_chaos_disabled_overhead: the paired per-iteration wall-clock
# ratio of a disabled-injector journaled campaign over a no-chaos one
# (many short legs timed in alternating ABBA blocks inside the benchmark,
# so machine drift cancels). DESIGN.md
# §5j budgets it at ≤1.02 — a wired-but-idle chaos plane must cost nothing
# measurable.
#
# The federation run (PR 10) is invoked as:
#   BENCHTIME=3x scripts/bench.sh pr10 'Table4Federation'
# When the output holds the Table4Federation result, the artifact gains
# federation_disabled_overhead: the paired wall-clock ratio of a
# federation-on fabric campaign over a NoFederation one (ABBA-paired legs
# inside the benchmark, 20ms heartbeat + push interval so the push path
# fires ~50x the default 1s cadence). DESIGN.md §5k budgets it at ≤1.02.
#
# The campaign pair runs the Table 4 benchmark twice in one binary:
# "straight" replays every injection in full (the pre-checkpoint executor)
# and "workers=1" goes through golden-run checkpointing; the ratio of their
# ns/op is the fast-forward speed-up on identical work. benchtime=1x keeps
# the run at one iteration per sub-benchmark — the campaign is deterministic,
# so more iterations only add time. For A/B comparisons measuring small
# deltas (e.g. the telemetry overhead pair) set BENCHTIME=5x: the first
# iteration builds the shared golden-run store, so single-iteration numbers
# mix warmup into whichever sub-benchmark runs first.
set -eu

cd "$(dirname "$0")/.."

TAG="${1:-local}"
BENCH="${2:-Table4Parallel/(straight|workers=1\$)|VMThroughput|BlockCompile}"
OUT="BENCH_${TAG}.json"

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run=NONE -bench "$BENCH" -benchtime="${BENCHTIME:-1x}" -timeout 60m . |
	tee /dev/stderr >"$RAW"

# Derive fabric scaling labels when the fabric benchmark ran ($3 is ns/op).
SCALING="$(awk '
	$1 ~ /^BenchmarkTable4Fabric\/executors=1(-[0-9]+)?$/ { one = $3 }
	$1 ~ /^BenchmarkTable4Fabric\/executors=2(-[0-9]+)?$/ { two = $3 }
	END {
		if (one > 0 && two > 0)
			printf "-label fabric_speedup_2x=%.2f -label fabric_efficiency_2x=%.2f",
				one / two, one / two / 2
	}
' "$RAW")"

# Derive the paired overhead labels when the disk-chaos or federation
# benchmark ran: each reports its ABBA-paired ratio as "overhead-ratio".
OVERHEAD="$(awk '
	$1 ~ /^BenchmarkTable4DiskChaos\/overhead(-[0-9]+)?$/ { label = "disk_chaos_disabled_overhead" }
	$1 ~ /^BenchmarkTable4Federation(-[0-9]+)?$/ { label = "federation_disabled_overhead" }
	label != "" {
		for (i = 2; i <= NF; i++)
			if ($i == "overhead-ratio") v[label] = $(i - 1)
		label = ""
	}
	END {
		for (l in v)
			if (v[l] > 0)
				printf "-label %s=%.4f ", l, v[l]
	}
' "$RAW")"

go run ./tools/benchjson \
	-label "tag=$TAG" \
	-label "commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
	${SCALING:-} \
	${OVERHEAD:-} \
	${EXTRA_LABELS:-} \
	<"$RAW" >"$OUT"

echo "wrote $OUT" >&2
