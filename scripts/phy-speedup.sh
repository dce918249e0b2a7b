#!/bin/sh
# phy-speedup: smoke-check that the PHY parallel fast path actually pays off.
#
# One wall-clock ratio, reported rather than gated: on a loaded shared host
# it reads anywhere around 1x whatever the code does, and a gate that trips
# on the parent commit teaches people to ignore gates. A ratio on the wrong
# side prints a WARN line and the script still exits 0. What does fail is a
# benchmark that no longer produces the sample the ratio needs.
#
# On multicore machines the end-to-end parallel benchmark at 8 workers
# should beat the same benchmark at 1 worker by >1.5x (the >=3x headline is
# tracked by bench-check against BENCH_sweep.json). A single-CPU machine
# cannot show wall-clock parallelism at all; there the 1-worker fast path is
# compared to the pre-fast-path serial baseline (23181 us/subframe, the seed
# BenchmarkPHYEndToEnd) instead.
set -eu

GO=${GO:-go}
ncpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

out=$(mktemp)
trap 'rm -f "$out"' EXIT INT TERM

$GO test -bench='BenchmarkPHYEndToEndParallel' -benchtime=10x -run='^$' . >"$out"

us_at() { # $1 = workers count; prints that row's us/subframe
	awk -v pat="/workers=$1(-[0-9]+)?$" '$1 ~ pat {
		for (i = 1; i < NF; i++) if ($(i+1) == "us/subframe") { print $i; exit }
	}' "$out"
}

t1=$(us_at 1)
[ -n "$t1" ] || { echo "phy-speedup: FAIL — no workers=1 sample in benchmark output" >&2; cat "$out" >&2; exit 1; }

if [ "$ncpu" -lt 2 ]; then
	base=23181 # seed BenchmarkPHYEndToEnd, pre fast path (µs/subframe)
	echo "phy-speedup: single CPU — comparing 1-worker fast path (${t1} µs) to pre-fast-path baseline (${base} µs)" >&2
	num=$base
	den=$t1
	label="serial fast path vs seed baseline"
else
	tn=$(us_at 8)
	[ -n "$tn" ] || { echo "phy-speedup: FAIL — no workers=8 sample in benchmark output" >&2; cat "$out" >&2; exit 1; }
	num=$t1
	den=$tn
	label="8 workers vs 1 worker"
fi

ratio=$(awk -v a="$num" -v b="$den" 'BEGIN { printf "%.2f", a / b }')
pass=$(awk -v a="$num" -v b="$den" 'BEGIN { print (a > 1.5 * b) ? 1 : 0 }')
if [ "$pass" -ne 1 ]; then
	echo "phy-speedup: WARN — $label speedup ${ratio}x, expected > 1.5x" >&2
else
	echo "phy-speedup: PASS — $label speedup ${ratio}x (> 1.5x)" >&2
fi
