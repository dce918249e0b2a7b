#!/bin/sh
# obs-smoke: end-to-end determinism check for the distributed observability
# plane.
#
# Two collectors are started. Collector A receives pushes from TWO worker
# processes that split the deterministic experiment registry between them;
# collector B receives pushes from ONE process running the whole registry.
# Because per-experiment seeds derive from the experiment's id and replica
# (not from which process runs it), and registry merge is
# exact for counters and histogram buckets, the two merged /metrics
# expositions must be byte-identical once wall-clock series (the per-unit
# wall-time histogram) are filtered out.
#
# Finally collector A is sent SIGINT and must flush a valid merged-snapshot
# JSON archive.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	# Collectors flush their final snapshot on signal; reap them before
	# deleting the directory they write into.
	for p in $pids; do wait "$p" 2>/dev/null || true; done
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "obs-smoke: building binaries" >&2
$GO build -o "$tmp/obscollect" ./cmd/obscollect
$GO build -o "$tmp/rtopex" ./cmd/rtopex

# Split the registry: odd-position experiments to worker 1, even to
# worker 2. fig4 (measured) is excluded by -skip-measured either way.
ids=$("$tmp/rtopex" -list | awk '{print $1}')
exp1=$(echo "$ids" | awk 'NR % 2 == 1' | paste -sd, -)
exp2=$(echo "$ids" | awk 'NR % 2 == 0' | paste -sd, -)
all=$(echo "$ids" | paste -sd, -)

start_collector() { # $1=addr-file $2=final-json
	"$tmp/obscollect" -listen 127.0.0.1:0 -addr-file "$1" -final "$2" -quiet 2>>"$tmp/collect.log" &
	pid=$!
	pids="$pids $pid"
	for _ in $(seq 1 100); do
		[ -s "$1" ] && break
		sleep 0.05
	done
	[ -s "$1" ] || { echo "obs-smoke: collector did not bind" >&2; exit 1; }
}

start_collector "$tmp/addr_a" "$tmp/final_a.json"
addr_a=$(cat "$tmp/addr_a")
col_a=$pid
start_collector "$tmp/addr_b" "$tmp/final_b.json"
addr_b=$(cat "$tmp/addr_b")

sweep() { # $1=exps $2=collector-addr
	"$tmp/rtopex" -exp "$1" -quick -parallel -workers 2 -skip-measured \
		-push "$2" >/dev/null 2>>"$tmp/sweep.log"
}

echo "obs-smoke: two-worker push sweep -> collector A ($addr_a)" >&2
sweep "$exp1" "$addr_a" &
w1=$!
sweep "$exp2" "$addr_a" &
w2=$!
wait "$w1" || { echo "obs-smoke: worker 1 failed"; cat "$tmp/sweep.log"; exit 1; } >&2
wait "$w2" || { echo "obs-smoke: worker 2 failed"; cat "$tmp/sweep.log"; exit 1; } >&2

echo "obs-smoke: single-process push sweep -> collector B ($addr_b)" >&2
sweep "$all" "$addr_b" || { echo "obs-smoke: serial worker failed"; cat "$tmp/sweep.log"; exit 1; } >&2

# Scrape both merged views and drop the only wall-clock-dependent family
# (per-unit wall seconds); everything else must match byte-for-byte.
scrape() { # $1=addr $2=out
	if command -v curl >/dev/null 2>&1; then
		curl -fsS "http://$1/metrics" >"$2"
	else
		wget -qO- "http://$1/metrics" >"$2"
	fi
	grep -v 'rtopex_sweep_unit_seconds' "$2" >"$2.filtered"
}
scrape "$addr_a" "$tmp/metrics_a"
scrape "$addr_b" "$tmp/metrics_b"

if ! diff -u "$tmp/metrics_b.filtered" "$tmp/metrics_a.filtered" >"$tmp/metrics.diff"; then
	echo "obs-smoke: FAIL — merged two-worker /metrics differs from single-process:" >&2
	cat "$tmp/metrics.diff" >&2
	exit 1
fi
# Sanity: the comparison must be over real content, not two empty scrapes.
grep -q '^rtopex_sweep_units_done_total' "$tmp/metrics_a.filtered" || {
	echo "obs-smoke: FAIL — merged /metrics carries no sweep counters" >&2
	cat "$tmp/metrics_a" >&2
	exit 1
}

echo "obs-smoke: SIGINT collector A, expecting final snapshot flush" >&2
kill -INT "$col_a"
for _ in $(seq 1 100); do
	[ -s "$tmp/final_a.json" ] && break
	sleep 0.05
done
[ -s "$tmp/final_a.json" ] || { echo "obs-smoke: FAIL — no final snapshot written" >&2; exit 1; }
grep -q '"merged"' "$tmp/final_a.json" && grep -q 'rtopex_sweep_units_total' "$tmp/final_a.json" || {
	echo "obs-smoke: FAIL — final snapshot malformed" >&2
	cat "$tmp/final_a.json" >&2
	exit 1
}

lines=$(wc -l <"$tmp/metrics_a.filtered")
echo "obs-smoke: PASS — merged /metrics identical across 2-worker and serial pushes ($lines lines), final flush ok" >&2
