#!/usr/bin/env bash
# Benchmark-regression smoke over the committed benchmark reports.
#
# Leg 1 (BENCH_nn.json): regenerates the kernel benchmark three times
# and compares each dim's median fast-vs-naive train-step speedup
# against the committed report, failing if the median falls more than
# 10% below the committed one.
#
# Leg 2 (BENCH_space.json): regenerates the TypeSpace index benchmark
# three times at reduced scale (10^4 and 10^5 markers) and fails if any
# scale's median sharded-query speedup over the exact scan falls more
# than 10% below the committed ratio, or if any run's recall@10 drops
# below the 0.95 floor.
#
# Legs 1 and 2 gate on a median because a single run of either ratio
# spreads past the 10% bound on a loaded host with no change to the
# code.
#
# Leg 3 (BENCH_serve.json): regenerates the serve daemon benchmark and
# fails if any client count produced error replies (concurrency may
# never cost correctness), if the 1-client served p50 exceeds twice the
# in-process predict p50 on the same sources
# (served_vs_inprocess_p50 > 2.0: a transport stall such as Nagle's
# algorithm meeting delayed ACK puts it near 20), or if the engine's
# catch_unwind supervision wrapper costs more than 5% p50 on the
# unfaulted predict path (supervision_p50_overhead >= 1.05).
#
# Speedups are ratios measured within a single run, so — unlike
# absolute timings — they compare across machines. Pass paths to
# already-generated fresh JSONs ($1 = nn, $2 = space, $3 = serve) to
# skip the (slow) regenerations; a given file counts as the only run. Run from anywhere; operates on the
# repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

status=0

# ---------------- shared: median over runs ----------------
RUNS=3
TMPFILES=()
trap 'rm -f "${TMPFILES[@]}"' EXIT

# median_by_key: reads "key value" lines, prints "key median" per key
# (ascending key order; the mean of the middle pair for even counts).
median_by_key() {
    sort -k1,1n -k2,2g | awk '
        function flush() {
            if (n == 0) return
            m = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
            printf "%s %.3f\n", key, m
        }
        $1 != key { flush(); key = $1; n = 0 }
        { v[++n] = $2 }
        END { flush() }
    '
}

# ---------------- leg 1: nn kernel speedups ----------------
COMMITTED=BENCH_nn.json
[ -f "$COMMITTED" ] || { echo "benchdiff: no committed $COMMITTED" >&2; exit 1; }

if [ -n "${1:-}" ]; then
    FRESH_NN=("$1")
else
    FRESH_NN=()
    for run in $(seq "$RUNS"); do
        f=$(mktemp "${TMPDIR:-/tmp}/bench_nn.XXXXXX.json")
        TMPFILES+=("$f")
        FRESH_NN+=("$f")
        echo "benchdiff: regenerating nn benchmark ($run/$RUNS) into $f ..."
        TYPILUS_BENCH_OUT="$f" cargo run -q --release -p typilus-bench --bin bench_nn >/dev/null
    done
fi

extract() { # extract <json> -> lines of "dim step_speedup"
    awk '
        /"dim":/          { v = $2; gsub(/[^0-9]/, "", v); dim = v }
        /"step_speedup":/ { v = $2; gsub(/[^0-9.]/, "", v); print dim, v }
    ' "$1"
}

found=0
while read -r dim fresh_speedup; do
    found=1
    committed_speedup=$(extract "$COMMITTED" | awk -v d="$dim" '$1 == d { print $2 }')
    if [ -z "$committed_speedup" ]; then
        echo "benchdiff: dim $dim missing from committed $COMMITTED" >&2
        status=1
        continue
    fi
    if awk -v f="$fresh_speedup" -v c="$committed_speedup" 'BEGIN { exit !(f < 0.9 * c) }'; then
        echo "benchdiff: dim $dim REGRESSED: median of ${#FRESH_NN[@]} fresh runs ${fresh_speedup}x vs committed ${committed_speedup}x (>10% below)" >&2
        status=1
    else
        echo "benchdiff: dim $dim OK: median of ${#FRESH_NN[@]} fresh runs ${fresh_speedup}x vs committed ${committed_speedup}x"
    fi
done < <(for f in "${FRESH_NN[@]}"; do extract "$f"; done | median_by_key)

if [ "$found" -eq 0 ]; then
    echo "benchdiff: no step_speedup entries found in ${FRESH_NN[*]}" >&2
    status=1
fi

# ---------------- leg 2: space index query speedup + recall ----------------
SPACE_COMMITTED=BENCH_space.json
[ -f "$SPACE_COMMITTED" ] || { echo "benchdiff: no committed $SPACE_COMMITTED" >&2; exit 1; }

if [ -n "${2:-}" ]; then
    FRESH_SPACE=("$2")
else
    FRESH_SPACE=()
    for run in $(seq "$RUNS"); do
        f=$(mktemp "${TMPDIR:-/tmp}/bench_space.XXXXXX.json")
        TMPFILES+=("$f")
        FRESH_SPACE+=("$f")
        echo "benchdiff: regenerating space benchmark ($run/$RUNS) into $f ..."
        TYPILUS_SPACE_SCALES="10000,100000" TYPILUS_BENCH_OUT="$f" \
            cargo run -q --release -p typilus-bench --bin bench_space >/dev/null
    done
fi

extract_space() { # extract_space <json> -> lines of "markers speedup recall"
    awk '
        /"markers":/                { v = $2; gsub(/[^0-9]/, "", v); markers = v }
        /"recall_at_10":/           { v = $2; gsub(/[^0-9.]/, "", v); recall = v }
        /"query_speedup_vs_exact":/ { v = $2; gsub(/[^0-9.]/, "", v); print markers, v, recall }
    ' "$1"
}

space_found=0
while read -r markers fresh_speedup; do
    space_found=1
    committed_speedup=$(extract_space "$SPACE_COMMITTED" | awk -v m="$markers" '$1 == m { print $2 }')
    if [ -z "$committed_speedup" ]; then
        echo "benchdiff: $markers markers missing from committed $SPACE_COMMITTED" >&2
        status=1
        continue
    fi
    if awk -v f="$fresh_speedup" -v c="$committed_speedup" 'BEGIN { exit !(f < 0.9 * c) }'; then
        echo "benchdiff: space $markers markers query REGRESSED: median of ${#FRESH_SPACE[@]} fresh runs ${fresh_speedup}x vs committed ${committed_speedup}x (>10% below)" >&2
        status=1
    else
        echo "benchdiff: space $markers markers query OK: median of ${#FRESH_SPACE[@]} fresh runs ${fresh_speedup}x vs committed ${committed_speedup}x"
    fi
done < <(for f in "${FRESH_SPACE[@]}"; do extract_space "$f"; done | cut -d' ' -f1,2 | median_by_key)

# Recall is gated on every run, not on the median.
while read -r markers _ fresh_recall; do
    if awk -v r="$fresh_recall" 'BEGIN { exit !(r < 0.95) }'; then
        echo "benchdiff: space $markers markers recall@10 TOO LOW: ${fresh_recall} (< 0.95)" >&2
        status=1
    else
        echo "benchdiff: space $markers markers recall@10 OK: ${fresh_recall}"
    fi
done < <(for f in "${FRESH_SPACE[@]}"; do extract_space "$f"; done)

if [ "$space_found" -eq 0 ]; then
    echo "benchdiff: no query_speedup_vs_exact entries found in ${FRESH_SPACE[*]}" >&2
    status=1
fi

# ---------------- leg 3: serve error-free replies + served vs in-process p50 ----------------
SERVE_COMMITTED=BENCH_serve.json
[ -f "$SERVE_COMMITTED" ] || { echo "benchdiff: no committed $SERVE_COMMITTED" >&2; exit 1; }

SERVE_FRESH=${3:-}
if [ -z "$SERVE_FRESH" ]; then
    SERVE_FRESH=$(mktemp "${TMPDIR:-/tmp}/bench_serve.XXXXXX.json")
    TMPFILES+=("$SERVE_FRESH")
    echo "benchdiff: regenerating serve benchmark into $SERVE_FRESH ..."
    TYPILUS_BENCH_OUT="$SERVE_FRESH" \
        cargo run -q --release -p typilus-bench --bin bench_serve >/dev/null
fi

extract_serve() { # extract_serve <json> -> lines of "clients errors"
    awk '
        /"clients":/ { v = $2; gsub(/[^0-9]/, "", v); clients = v }
        /"errors":/  { v = $2; gsub(/[^0-9]/, "", v); print clients, v }
    ' "$1"
}
served_ratio_of() { # served_ratio_of <json> -> the served_vs_inprocess_p50 value
    awk '/"served_vs_inprocess_p50":/ { v = $2; gsub(/[^0-9.]/, "", v); print v }' "$1"
}
supervision_of() { # supervision_of <json> -> the supervision_p50_overhead value
    awk '/"supervision_p50_overhead":/ { v = $2; gsub(/[^0-9.]/, "", v); print v }' "$1"
}

serve_found=0
while read -r clients errs; do
    serve_found=1
    if [ "$errs" -ne 0 ]; then
        echo "benchdiff: serve $clients clients REGRESSED: $errs error replies (must be 0)" >&2
        status=1
    else
        echo "benchdiff: serve $clients clients OK: 0 error replies"
    fi
done < <(extract_serve "$SERVE_FRESH")

if [ "$serve_found" -eq 0 ]; then
    echo "benchdiff: no serve rows found in $SERVE_FRESH" >&2
    status=1
fi

fresh_served_ratio=$(served_ratio_of "$SERVE_FRESH")
if [ -z "$fresh_served_ratio" ]; then
    echo "benchdiff: served_vs_inprocess_p50 missing from $SERVE_FRESH" >&2
    status=1
elif awk -v r="$fresh_served_ratio" 'BEGIN { exit !(r > 2.0) }'; then
    echo "benchdiff: serve 1-client p50 REGRESSED: ${fresh_served_ratio}x the in-process p50 (> 2.0)" >&2
    status=1
else
    echo "benchdiff: serve 1-client p50 OK: ${fresh_served_ratio}x the in-process p50"
fi

fresh_supervision=$(supervision_of "$SERVE_FRESH")
if [ -z "$fresh_supervision" ]; then
    echo "benchdiff: supervision_p50_overhead missing from $SERVE_FRESH" >&2
    status=1
elif awk -v s="$fresh_supervision" 'BEGIN { exit !(s >= 1.05) }'; then
    echo "benchdiff: serve supervision wrapper REGRESSED: ${fresh_supervision}x p50 overhead (>= 1.05)" >&2
    status=1
else
    echo "benchdiff: serve supervision wrapper OK: ${fresh_supervision}x p50 overhead"
fi

if [ "$status" -ne 0 ]; then
    echo "benchdiff: FAILED" >&2
    exit "$status"
fi
echo "benchdiff: OK"
